//! Versioned, checksummed binary encoding of templates and load images.
//!
//! Templates (`.o`) and executables live as ordinary files in the
//! simulated file system, so they need a byte representation. The format
//! is little-endian, length-prefixed, begins with a four-byte magic and a
//! format version, and ends with a CRC-32 of everything before it —
//! corruption is detected rather than mis-parsed.

use crate::image::{
    DynamicModule, ImageReloc, ImageSymbol, LoadImage, SearchStrategy, StaticModuleRecord,
};
use crate::object::{Object, SearchSpec, SectionId};
use crate::reloc::{Reloc, RelocKind};
use crate::symbol::{Binding, Symbol, SymbolDef};
use crate::ShareClass;
use std::fmt;

/// Magic for template (`.o`) files.
pub const OBJ_MAGIC: u32 = 0x4A42_4F48; // "HOBJ" little-endian
/// Magic for load images (`a.out`).
pub const IMG_MAGIC: u32 = 0x474D_4948; // "HIMG" little-endian
/// Current format version.
pub const VERSION: u16 = 1;

/// Decoding failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BinError {
    /// Fewer bytes than the structure requires.
    Truncated,
    /// Wrong magic number (not this kind of file).
    BadMagic { found: u32 },
    /// Unsupported format version.
    BadVersion { found: u16 },
    /// Checksum mismatch — the file is corrupt.
    BadChecksum,
    /// A field held an impossible value.
    Malformed(&'static str),
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinError::Truncated => write!(f, "file truncated"),
            BinError::BadMagic { found } => write!(f, "bad magic {found:#010x}"),
            BinError::BadVersion { found } => write!(f, "unsupported format version {found}"),
            BinError::BadChecksum => write!(f, "checksum mismatch (corrupt file)"),
            BinError::Malformed(what) => write!(f, "malformed field: {what}"),
        }
    }
}

/// The IEEE CRC-32 polynomial, bit-reflected.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables, built at compile time: `CRC32_TABLES[0][b]` is
/// the CRC of byte `b`, and `CRC32_TABLES[k][b]` is that CRC advanced
/// through `k` further zero bytes, so eight lookups fold eight bytes.
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// Bytes per lane: `crc32` folds each block of four lanes at once.
const CRC32_LANE: usize = 256;

/// The fold table, built at compile time: `CRC32_SHIFT[k][b]` is the
/// register `b << 8k` advanced through one lane of zero bytes (a
/// multiplication by x^(8·256) mod P), so four lookups carry a lane's
/// CRC past the lane that follows it.
static CRC32_SHIFT: [[u32; 256]; 4] = crc32_shift_table();

const fn crc32_shift_table() -> [[u32; 256]; 4] {
    // The shift is linear over GF(2): advance each one-bit register
    // through a lane of zero bytes, then xor those images per byte value.
    let t0 = crc32_tables()[0];
    let mut basis = [0u32; 32];
    let mut i = 0;
    while i < 32 {
        let mut crc = 1u32 << i;
        let mut n = 0;
        while n < CRC32_LANE {
            crc = (crc >> 8) ^ t0[(crc & 0xFF) as usize];
            n += 1;
        }
        basis[i] = crc;
        i += 1;
    }
    let mut s = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            let mut bit = 0;
            while bit < 8 {
                if b & (1 << bit) != 0 {
                    s[k][b] ^= basis[8 * k + bit];
                }
                bit += 1;
            }
            b += 1;
        }
        k += 1;
    }
    s
}

/// Advances the CRC register `crc` through one lane of zero bytes.
fn crc32_shift(crc: u32) -> u32 {
    let s = &CRC32_SHIFT;
    s[0][(crc & 0xFF) as usize]
        ^ s[1][((crc >> 8) & 0xFF) as usize]
        ^ s[2][((crc >> 16) & 0xFF) as usize]
        ^ s[3][(crc >> 24) as usize]
}

/// Folds eight bytes into the CRC register `crc` (one slicing-by-8 step).
#[inline(always)]
fn crc32_step8(crc: u32, w: &[u8; 8]) -> u32 {
    let t = &CRC32_TABLES;
    let v = u64::from_le_bytes(*w) ^ crc as u64;
    t[7][(v & 0xFF) as usize]
        ^ t[6][((v >> 8) & 0xFF) as usize]
        ^ t[5][((v >> 16) & 0xFF) as usize]
        ^ t[4][((v >> 24) & 0xFF) as usize]
        ^ t[3][((v >> 32) & 0xFF) as usize]
        ^ t[2][((v >> 40) & 0xFF) as usize]
        ^ t[1][((v >> 48) & 0xFF) as usize]
        ^ t[0][(v >> 56) as usize]
}

/// Computes the CRC-32 (IEEE, reflected) of `data`.
///
/// Each block of four 256-byte lanes runs four independent slicing-by-8
/// registers, lane 0 seeded with the running CRC and the others with 0.
/// The CRC register is linear over GF(2), so a lane's register carried
/// past the next lane by `crc32_shift` and xored with that lane's
/// zero-seeded register is the register of both lanes run in series:
/// the fold returns exactly the byte-at-a-time value. The bytes after
/// the last block take eight-byte steps, then single bytes.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    let (blocks, rest) = data.as_chunks::<{ 4 * CRC32_LANE }>();
    for block in blocks {
        let (l0, l) = block.split_at(CRC32_LANE);
        let (l1, l) = l.split_at(CRC32_LANE);
        let (l2, l3) = l.split_at(CRC32_LANE);
        let (mut c0, mut c1, mut c2, mut c3) = (crc, 0, 0, 0);
        for (((w0, w1), w2), w3) in l0
            .as_chunks::<8>()
            .0
            .iter()
            .zip(l1.as_chunks::<8>().0)
            .zip(l2.as_chunks::<8>().0)
            .zip(l3.as_chunks::<8>().0)
        {
            c0 = crc32_step8(c0, w0);
            c1 = crc32_step8(c1, w1);
            c2 = crc32_step8(c2, w2);
            c3 = crc32_step8(c3, w3);
        }
        crc = crc32_shift(crc32_shift(crc32_shift(c0) ^ c1) ^ c2) ^ c3;
    }
    let (words, tail) = rest.as_chunks::<8>();
    for w in words {
        crc = crc32_step8(crc, w);
    }
    let t0 = &CRC32_TABLES[0];
    for &b in tail {
        crc = (crc >> 8) ^ t0[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// --- primitive writer ---

/// A little-endian, length-prefixed, CRC-trailed record writer.
///
/// Public so sibling crates (the linkers' module-metadata files) can use
/// the same envelope: magic + version + fields + CRC-32.
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Starts a record with `magic` and the current format version.
    pub fn new(magic: u32) -> Writer {
        let mut w = Writer {
            buf: Vec::with_capacity(256),
        };
        w.u32(magic);
        w.u16(VERSION);
        w
    }
    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Appends a u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends an i32.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }
    /// Appends a length-prefixed string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
    /// Appends a counted list of strings.
    pub fn str_list(&mut self, v: &[String]) {
        self.u32(v.len() as u32);
        for s in v {
            self.str(s);
        }
    }
    /// Appends the CRC and returns the finished record.
    pub fn finish(mut self) -> Vec<u8> {
        let crc = crc32(&self.buf);
        self.u32(crc);
        self.buf
    }
}

// --- primitive reader ---

/// The matching record reader (checks CRC, magic, and version up front).
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Validates the envelope and positions after the header.
    pub fn open(buf: &'a [u8], magic: u32) -> Result<Reader<'a>, BinError> {
        if buf.len() < 10 {
            return Err(BinError::Truncated);
        }
        let (payload, crc_bytes) = buf.split_at(buf.len() - 4);
        let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
        if crc32(payload) != stored {
            return Err(BinError::BadChecksum);
        }
        let mut r = Reader {
            buf: payload,
            pos: 0,
        };
        let found = r.u32()?;
        if found != magic {
            return Err(BinError::BadMagic { found });
        }
        let version = r.u16()?;
        if version != VERSION {
            return Err(BinError::BadVersion { found: version });
        }
        Ok(r)
    }
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        if self.pos + n > self.buf.len() {
            return Err(BinError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    pub fn u8(&mut self) -> Result<u8, BinError> {
        Ok(self.take(1)?[0])
    }
    pub fn u16(&mut self) -> Result<u16, BinError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    pub fn u32(&mut self) -> Result<u32, BinError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    pub fn i32(&mut self) -> Result<i32, BinError> {
        Ok(self.u32()? as i32)
    }
    pub fn bytes(&mut self) -> Result<Vec<u8>, BinError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }
    pub fn str(&mut self) -> Result<String, BinError> {
        String::from_utf8(self.bytes()?).map_err(|_| BinError::Malformed("string not UTF-8"))
    }
    pub fn str_list(&mut self) -> Result<Vec<String>, BinError> {
        let n = self.u32()? as usize;
        let mut v = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            v.push(self.str()?);
        }
        Ok(v)
    }
    pub fn done(&self) -> Result<(), BinError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(BinError::Malformed("trailing bytes"))
        }
    }
}

/// Stable numeric tag for a relocation kind (shared with sibling crates).
pub fn reloc_kind_tag(k: RelocKind) -> u8 {
    match k {
        RelocKind::Hi16 => 0,
        RelocKind::Lo16 => 1,
        RelocKind::Jump26 => 2,
        RelocKind::Branch16 => 3,
        RelocKind::Word32 => 4,
        RelocKind::GpRel16 => 5,
    }
}

/// Inverse of [`reloc_kind_tag`].
pub fn reloc_kind_from(tag: u8) -> Result<RelocKind, BinError> {
    Ok(match tag {
        0 => RelocKind::Hi16,
        1 => RelocKind::Lo16,
        2 => RelocKind::Jump26,
        3 => RelocKind::Branch16,
        4 => RelocKind::Word32,
        5 => RelocKind::GpRel16,
        _ => return Err(BinError::Malformed("relocation kind")),
    })
}

fn class_tag(c: ShareClass) -> u8 {
    match c {
        ShareClass::StaticPrivate => 0,
        ShareClass::DynamicPrivate => 1,
        ShareClass::StaticPublic => 2,
        ShareClass::DynamicPublic => 3,
    }
}

fn class_from(tag: u8) -> Result<ShareClass, BinError> {
    Ok(match tag {
        0 => ShareClass::StaticPrivate,
        1 => ShareClass::DynamicPrivate,
        2 => ShareClass::StaticPublic,
        3 => ShareClass::DynamicPublic,
        _ => return Err(BinError::Malformed("share class")),
    })
}

/// Serializes a template to bytes.
pub fn encode_object(o: &Object) -> Vec<u8> {
    let mut w = Writer::new(OBJ_MAGIC);
    w.str(&o.name);
    w.bytes(&o.text);
    w.bytes(&o.data);
    w.u32(o.bss_size);
    w.u8(o.uses_gp as u8);
    w.u32(o.symbols.len() as u32);
    for s in &o.symbols {
        w.str(&s.name);
        w.u8(matches!(s.binding, Binding::Global) as u8);
        match &s.def {
            Some(d) => {
                w.u8(1);
                w.u8(d.section.tag());
                w.u32(d.offset);
            }
            None => w.u8(0),
        }
    }
    w.u32(o.relocs.len() as u32);
    for r in &o.relocs {
        w.u8(r.section.tag());
        w.u32(r.offset);
        w.u32(r.symbol);
        w.i32(r.addend);
        w.u8(reloc_kind_tag(r.kind));
    }
    w.str_list(&o.search.modules);
    w.str_list(&o.search.dirs);
    w.finish()
}

/// Deserializes a template.
pub fn decode_object(buf: &[u8]) -> Result<Object, BinError> {
    let mut r = Reader::open(buf, OBJ_MAGIC)?;
    let name = r.str()?;
    let text = r.bytes()?;
    let data = r.bytes()?;
    let bss_size = r.u32()?;
    let uses_gp = r.u8()? != 0;
    let nsyms = r.u32()? as usize;
    let mut symbols = Vec::with_capacity(nsyms.min(65536));
    for _ in 0..nsyms {
        let name = r.str()?;
        let binding = if r.u8()? != 0 {
            Binding::Global
        } else {
            Binding::Local
        };
        let def = if r.u8()? != 0 {
            let section = SectionId::from_tag(r.u8()?).ok_or(BinError::Malformed("section tag"))?;
            let offset = r.u32()?;
            Some(SymbolDef { section, offset })
        } else {
            None
        };
        symbols.push(Symbol { name, binding, def });
    }
    let nrelocs = r.u32()? as usize;
    let mut relocs = Vec::with_capacity(nrelocs.min(65536));
    for _ in 0..nrelocs {
        let section = SectionId::from_tag(r.u8()?).ok_or(BinError::Malformed("section tag"))?;
        let offset = r.u32()?;
        let symbol = r.u32()?;
        let addend = r.i32()?;
        let kind = reloc_kind_from(r.u8()?)?;
        relocs.push(Reloc {
            section,
            offset,
            symbol,
            addend,
            kind,
        });
    }
    let modules = r.str_list()?;
    let dirs = r.str_list()?;
    r.done()?;
    Ok(Object {
        name,
        text,
        data,
        bss_size,
        symbols,
        relocs,
        search: SearchSpec { modules, dirs },
        uses_gp,
    })
}

/// Serializes a load image to bytes.
pub fn encode_image(img: &LoadImage) -> Vec<u8> {
    let mut w = Writer::new(IMG_MAGIC);
    w.str(&img.name);
    w.u32(img.text_base);
    w.bytes(&img.text);
    w.u32(img.data_base);
    w.bytes(&img.data);
    w.u32(img.bss_base);
    w.u32(img.bss_size);
    w.u32(img.entry);
    w.u32(img.tramp_offset);
    w.u32(img.tramp_used);
    w.u32(img.symbols.len() as u32);
    for s in &img.symbols {
        w.str(&s.name);
        w.u8(matches!(s.binding, Binding::Global) as u8);
        match s.addr {
            Some(a) => {
                w.u8(1);
                w.u32(a);
            }
            None => w.u8(0),
        }
    }
    w.u32(img.pending.len() as u32);
    for p in &img.pending {
        w.u32(p.addr);
        w.u8(reloc_kind_tag(p.kind));
        w.str(&p.symbol);
        w.i32(p.addend);
    }
    w.u32(img.dynamic.len() as u32);
    for d in &img.dynamic {
        w.str(&d.name);
        w.u8(class_tag(d.class));
    }
    w.u32(img.statics.len() as u32);
    for s in &img.statics {
        w.str(&s.name);
        w.str(&s.path);
        w.u32(s.base);
        w.u8(class_tag(s.class));
    }
    w.str(&img.strategy.link_cwd);
    w.str_list(&img.strategy.cli_dirs);
    w.str_list(&img.strategy.env_dirs);
    w.str_list(&img.strategy.default_dirs);
    w.finish()
}

/// Deserializes a load image.
pub fn decode_image(buf: &[u8]) -> Result<LoadImage, BinError> {
    let mut r = Reader::open(buf, IMG_MAGIC)?;
    let name = r.str()?;
    let text_base = r.u32()?;
    let text = r.bytes()?;
    let data_base = r.u32()?;
    let data = r.bytes()?;
    let bss_base = r.u32()?;
    let bss_size = r.u32()?;
    let entry = r.u32()?;
    let tramp_offset = r.u32()?;
    let tramp_used = r.u32()?;
    let nsyms = r.u32()? as usize;
    let mut symbols = Vec::with_capacity(nsyms.min(65536));
    for _ in 0..nsyms {
        let name = r.str()?;
        let binding = if r.u8()? != 0 {
            Binding::Global
        } else {
            Binding::Local
        };
        let addr = if r.u8()? != 0 { Some(r.u32()?) } else { None };
        symbols.push(ImageSymbol {
            name,
            binding,
            addr,
        });
    }
    let npending = r.u32()? as usize;
    let mut pending = Vec::with_capacity(npending.min(65536));
    for _ in 0..npending {
        let addr = r.u32()?;
        let kind = reloc_kind_from(r.u8()?)?;
        let symbol = r.str()?;
        let addend = r.i32()?;
        pending.push(ImageReloc {
            addr,
            kind,
            symbol,
            addend,
        });
    }
    let ndyn = r.u32()? as usize;
    let mut dynamic = Vec::with_capacity(ndyn.min(65536));
    for _ in 0..ndyn {
        let name = r.str()?;
        let class = class_from(r.u8()?)?;
        dynamic.push(DynamicModule { name, class });
    }
    let nstat = r.u32()? as usize;
    let mut statics = Vec::with_capacity(nstat.min(65536));
    for _ in 0..nstat {
        let name = r.str()?;
        let path = r.str()?;
        let base = r.u32()?;
        let class = class_from(r.u8()?)?;
        statics.push(StaticModuleRecord {
            name,
            path,
            base,
            class,
        });
    }
    let strategy = SearchStrategy {
        link_cwd: r.str()?,
        cli_dirs: r.str_list()?,
        env_dirs: r.str_list()?,
        default_dirs: r.str_list()?,
    };
    r.done()?;
    Ok(LoadImage {
        name,
        text_base,
        text,
        data_base,
        data,
        bss_base,
        bss_size,
        entry,
        tramp_offset,
        tramp_used,
        symbols,
        pending,
        dynamic,
        statics,
        strategy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_object() -> Object {
        Object {
            name: "counter".into(),
            text: vec![1, 2, 3, 4, 5, 6, 7, 8],
            data: vec![9, 9, 9, 9],
            bss_size: 16,
            symbols: vec![
                Symbol::global("incr", SectionId::Text, 0),
                Symbol::local("tmp", SectionId::Data, 0),
                Symbol::undefined("lock_acquire"),
            ],
            relocs: vec![Reloc {
                section: SectionId::Text,
                offset: 4,
                symbol: 2,
                addend: -8,
                kind: RelocKind::Jump26,
            }],
            search: SearchSpec {
                modules: vec!["locks".into()],
                dirs: vec!["/shared/lib".into()],
            },
            uses_gp: false,
        }
    }

    fn sample_image() -> LoadImage {
        LoadImage {
            name: "a.out".into(),
            text_base: 0x1000,
            text: vec![0xAA; 32],
            data_base: 0x1000_0000,
            data: vec![0xBB; 8],
            bss_base: 0x1000_0008,
            bss_size: 64,
            entry: 0x1000,
            tramp_offset: 24,
            tramp_used: 12,
            symbols: vec![
                ImageSymbol {
                    name: "main".into(),
                    binding: Binding::Global,
                    addr: Some(0x1004),
                },
                ImageSymbol {
                    name: "shared_db".into(),
                    binding: Binding::Global,
                    addr: None,
                },
            ],
            pending: vec![ImageReloc {
                addr: 0x1008,
                kind: RelocKind::Hi16,
                symbol: "shared_db".into(),
                addend: 4,
            }],
            dynamic: vec![DynamicModule {
                name: "rwho_db".into(),
                class: ShareClass::DynamicPublic,
            }],
            statics: vec![StaticModuleRecord {
                name: "libc".into(),
                path: "".into(),
                base: 0x1000,
                class: ShareClass::StaticPrivate,
            }],
            strategy: SearchStrategy {
                link_cwd: "/proj".into(),
                cli_dirs: vec!["/L1".into()],
                env_dirs: vec![],
                default_dirs: vec!["/usr/hemlock/lib".into()],
            },
        }
    }

    #[test]
    fn object_round_trip() {
        let o = sample_object();
        assert_eq!(decode_object(&encode_object(&o)), Ok(o));
    }

    #[test]
    fn image_round_trip() {
        let img = sample_image();
        assert_eq!(decode_image(&encode_image(&img)), Ok(img));
    }

    #[test]
    fn detects_corruption_anywhere() {
        let bytes = encode_object(&sample_object());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let r = decode_object(&bad);
            assert!(r.is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn detects_truncation() {
        let bytes = encode_object(&sample_object());
        for keep in [0, 5, 9, bytes.len() - 1] {
            assert!(decode_object(&bytes[..keep]).is_err());
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        let bytes = encode_image(&sample_image());
        assert!(matches!(
            decode_object(&bytes),
            Err(BinError::BadMagic { .. })
        ));
        let bytes = encode_object(&sample_object());
        assert!(matches!(
            decode_image(&bytes),
            Err(BinError::BadMagic { .. })
        ));
    }

    /// The bitwise CRC-32 the table kernel must reproduce exactly.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC32_POLY & mask);
            }
        }
        !crc
    }

    /// `n` pseudo-random bytes (xorshift32).
    fn noise(n: usize) -> Vec<u8> {
        let mut x: u32 = 0x9E37_79B9;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_bitwise_reference() {
        let data = noise(4108);
        // Every length through 4100 covers every remainder after the
        // 8-byte steps, from empty to many steps, and up to four blocks.
        for len in 0..=4100 {
            let s = &data[..len];
            assert_eq!(crc32(s), crc32_bitwise(s), "length {len}");
        }
        // Sub-slices starting at every offset within a word.
        for off in 1..8 {
            for len in [1, 7, 8, 9, 63, 64, 65, 4096] {
                let s = &data[off..off + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "offset {off} length {len}");
            }
        }
    }

    #[test]
    fn crc32_matches_bitwise_reference_at_block_edges() {
        // One, four and eight four-lane blocks with the lengths just
        // around them, and a 36 KiB instance file plus a short tail,
        // each starting at every offset within a word.
        let big = 36 * 1024;
        let data = noise(big + 16);
        let lens = (1020..=1030)
            .chain(4090..=4110)
            .chain(8185..=8200)
            .chain(big + 1..=big + 7);
        for len in lens {
            for off in 0..8 {
                let s = &data[off..off + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "offset {off} length {len}");
            }
        }
    }

    #[test]
    fn crc32_shift_advances_through_one_lane_of_zeros() {
        let t0 = &CRC32_TABLES[0];
        let mut x: u32 = 1;
        let mut regs = vec![0, 1, 0x8000_0000, !0];
        regs.extend((0..64).map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        }));
        for c in regs {
            let mut slow = c;
            for _ in 0..CRC32_LANE {
                slow = (slow >> 8) ^ t0[(slow & 0xFF) as usize];
            }
            assert_eq!(crc32_shift(c), slow, "register {c:#010x}");
        }
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32 of "123456789" is 0xCBF43926 (IEEE reflected).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_single_bit_flip_fails_the_checksum() {
        let bytes = encode_image(&sample_image());
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                assert_eq!(
                    decode_image(&bad),
                    Err(BinError::BadChecksum),
                    "flip of bit {bit} in byte {i}"
                );
            }
        }
    }

    #[test]
    fn empty_object_round_trips() {
        let o = Object::new("empty");
        assert_eq!(decode_object(&encode_object(&o)), Ok(o));
    }
}
