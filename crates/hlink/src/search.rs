//! Module search paths.
//!
//! §3, "The Linkers": at static link time `lds` searches (1) the current
//! directory, (2) `-L` directories from the command line, (3) the
//! `LD_LIBRARY_PATH` environment variable, and (4) the default library
//! directories; "If there is more than one static module with the same
//! name, lds uses the first one it finds." At run time `ldl` searches the
//! *current* `LD_LIBRARY_PATH` first, then the directories `lds` recorded.
//! "Users can arrange to use new versions of dynamic modules by changing
//! the LD_LIBRARY_PATH environment variable prior to execution" — the
//! mechanism the Presto-style parallel launcher uses to point children at
//! a temporary directory (§4).

use hobj::SearchStrategy;
use hsfs::path as fspath;
use hsfs::Vfs;

/// An ordered list of directories to probe for module templates.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchPath {
    dirs: Vec<String>,
}

impl SearchPath {
    /// Builds the `lds` static-link-time path: cwd, `-L` dirs,
    /// `LD_LIBRARY_PATH`, defaults.
    pub fn for_lds(cwd: &str, cli_dirs: &[String], ld_library_path: Option<&str>) -> SearchPath {
        let mut dirs = vec![cwd.to_string()];
        dirs.extend(cli_dirs.iter().cloned());
        dirs.extend(split_env(ld_library_path));
        dirs.extend(crate::DEFAULT_LIB_DIRS.iter().map(|s| s.to_string()));
        SearchPath { dirs: dedup(dirs) }
    }

    /// Builds the `ldl` run-time path: the current `LD_LIBRARY_PATH`
    /// first, then everything `lds` recorded.
    pub fn for_ldl(ld_library_path: Option<&str>, recorded: &SearchStrategy) -> SearchPath {
        let mut dirs = split_env(ld_library_path);
        dirs.extend(recorded.dirs().map(str::to_string));
        SearchPath { dirs: dedup(dirs) }
    }

    /// A path consisting of the given directories (scoped linking uses
    /// this for a module's own `.search` spec).
    pub fn of_dirs(dirs: &[String]) -> SearchPath {
        SearchPath {
            dirs: dedup(dirs.to_vec()),
        }
    }

    /// The directories, in probe order.
    pub fn dirs(&self) -> &[String] {
        &self.dirs
    }

    /// Resolves a module spec to the path of its template file.
    ///
    /// Absolute specs (or specs containing `/`) are used directly
    /// (resolved against `cwd` if relative); bare names get `.o` appended
    /// and are probed through the directory list, first match winning.
    pub fn locate(&self, vfs: &mut Vfs, cwd: &str, spec: &str) -> Option<String> {
        if spec.contains('/') {
            let p = fspath::absolutize(spec, cwd).ok()?;
            return match vfs.stat(&p) {
                Ok(_) => Some(p),
                Err(_) => None,
            };
        }
        let file = if spec.ends_with(".o") {
            spec.to_string()
        } else {
            format!("{spec}.o")
        };
        for dir in &self.dirs {
            let cand = match fspath::absolutize(&file, dir) {
                Ok(c) => c,
                Err(_) => continue,
            };
            match vfs.stat(&cand) {
                Ok(meta) if meta.kind == hsfs::NodeKind::File => return Some(cand),
                _ => {}
            }
        }
        None
    }
}

fn split_env(value: Option<&str>) -> Vec<String> {
    value
        .unwrap_or("")
        .split(':')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

fn dedup(dirs: Vec<String>) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    dirs.into_iter()
        .filter(|d| seen.insert(d.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vfs_with(paths: &[&str]) -> Vfs {
        let mut vfs = Vfs::new();
        for p in paths {
            if let Some((dir, _)) = fspath::split_parent(p) {
                vfs.mkdir_all(dir, 0o777, 0).unwrap();
            }
            vfs.create_file(p, 0o666, 0).unwrap();
        }
        vfs
    }

    #[test]
    fn lds_order_cwd_cli_env_default() {
        let sp = SearchPath::for_lds(
            "/proj",
            &["/cli1".into(), "/cli2".into()],
            Some("/env1:/env2"),
        );
        assert_eq!(
            sp.dirs(),
            &[
                "/proj".to_string(),
                "/cli1".into(),
                "/cli2".into(),
                "/env1".into(),
                "/env2".into(),
                "/usr/hemlock/lib".into(),
                "/shared/lib".into(),
            ]
        );
    }

    #[test]
    fn ldl_order_env_first() {
        let recorded = SearchStrategy {
            link_cwd: "/proj".into(),
            cli_dirs: vec!["/cli".into()],
            env_dirs: vec!["/oldenv".into()],
            default_dirs: vec!["/usr/hemlock/lib".into()],
        };
        let sp = SearchPath::for_ldl(Some("/newenv"), &recorded);
        assert_eq!(sp.dirs()[0], "/newenv");
        assert_eq!(sp.dirs()[1], "/proj");
        // The run-time env can shadow a recorded module — the paper's
        // debugging/customization mechanism.
        assert!(sp.dirs().contains(&"/oldenv".to_string()));
    }

    #[test]
    fn first_match_wins() {
        let mut vfs = vfs_with(&["/a/m.o", "/b/m.o"]);
        let sp = SearchPath::of_dirs(&["/a".into(), "/b".into()]);
        assert_eq!(sp.locate(&mut vfs, "/", "m"), Some("/a/m.o".into()));
        let sp2 = SearchPath::of_dirs(&["/b".into(), "/a".into()]);
        assert_eq!(sp2.locate(&mut vfs, "/", "m"), Some("/b/m.o".into()));
    }

    #[test]
    fn explicit_paths_bypass_search() {
        let mut vfs = vfs_with(&["/proj/x.o"]);
        let sp = SearchPath::of_dirs(&["/elsewhere".into()]);
        assert_eq!(
            sp.locate(&mut vfs, "/proj", "./x.o"),
            Some("/proj/x.o".into())
        );
        assert_eq!(
            sp.locate(&mut vfs, "/", "/proj/x.o"),
            Some("/proj/x.o".into())
        );
        assert_eq!(sp.locate(&mut vfs, "/", "/missing/x.o"), None);
    }

    #[test]
    fn dot_o_optional_in_bare_names() {
        let mut vfs = vfs_with(&["/lib/mod.o"]);
        let sp = SearchPath::of_dirs(&["/lib".into()]);
        assert_eq!(sp.locate(&mut vfs, "/", "mod"), Some("/lib/mod.o".into()));
        assert_eq!(sp.locate(&mut vfs, "/", "mod.o"), Some("/lib/mod.o".into()));
        assert_eq!(sp.locate(&mut vfs, "/", "other"), None);
    }

    #[test]
    fn symlinked_template_found() {
        // The Presto pattern: a symlink to the template in a temp dir.
        let mut vfs = vfs_with(&["/shared/templates/data.o"]);
        vfs.mkdir_all("/tmp/job1", 0o777, 0).unwrap();
        vfs.symlink("/shared/templates/data.o", "/tmp/job1/data.o", 0)
            .unwrap();
        let sp = SearchPath::of_dirs(&["/tmp/job1".into()]);
        assert_eq!(
            sp.locate(&mut vfs, "/", "data"),
            Some("/tmp/job1/data.o".into())
        );
    }

    #[test]
    fn duplicate_dirs_deduped() {
        let sp = SearchPath::for_lds("/a", &["/a".into(), "/b".into()], Some("/b:/c"));
        let count_a = sp.dirs().iter().filter(|d| *d == "/a").count();
        assert_eq!(count_a, 1);
    }
}
