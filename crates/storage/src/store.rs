//! Object stores: where dataset files physically live.
//!
//! [`ObjectStore`] abstracts a flat namespace of byte blobs with ranged
//! reads — the greatest common denominator of a cluster storage node and
//! Amazon S3. Two concrete local backends are provided ([`MemStore`],
//! [`DiskStore`]); the simulated S3 remote lives in [`crate::s3sim`].

use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

/// A flat blob store with ranged reads.
///
/// `get_range` with `len` running past the end of the object is an error —
/// the layout/index is the single source of truth for sizes, so an
/// out-of-range read always indicates a corrupted index or a logic bug, and
/// the framework wants to hear about it loudly.
pub trait ObjectStore: Send + Sync {
    /// Diagnostic name of this store (e.g. `"local-disk"`, `"s3-sim"`).
    fn name(&self) -> &str;

    /// Create or replace an object.
    fn put(&self, key: &str, data: Bytes) -> io::Result<()>;

    /// Read `len` bytes starting at `offset`.
    fn get_range(&self, key: &str, offset: u64, len: u64) -> io::Result<Bytes>;

    /// Size of an object.
    fn size_of(&self, key: &str) -> io::Result<u64>;

    /// All keys, sorted.
    fn list(&self) -> Vec<String>;

    /// Remove an object; `Ok(false)` if it did not exist.
    fn delete(&self, key: &str) -> io::Result<bool>;

    /// How many parallel ranged GETs one read through this store is split
    /// into. More than one pays only where a single connection cannot
    /// stream at the path's full rate, as on S3; local stores read over
    /// one. Decorators forward their inner store's answer.
    fn streams(&self) -> usize {
        1
    }
}

fn not_found(key: &str) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("no such object: {key}"))
}

fn out_of_range(key: &str, offset: u64, len: u64, size: u64) -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        format!("range {offset}+{len} out of bounds for {key} (size {size})"),
    )
}

/// In-memory store: the default backend for tests and in-process clusters.
#[derive(Default)]
pub struct MemStore {
    name: String,
    objects: RwLock<BTreeMap<String, Bytes>>,
}

impl MemStore {
    pub fn new(name: impl Into<String>) -> Self {
        MemStore {
            name: name.into(),
            objects: RwLock::new(BTreeMap::new()),
        }
    }

    /// Total bytes stored.
    pub fn total_bytes(&self) -> u64 {
        self.objects.read().values().map(|b| b.len() as u64).sum()
    }
}

impl ObjectStore for MemStore {
    fn name(&self) -> &str {
        &self.name
    }

    fn put(&self, key: &str, data: Bytes) -> io::Result<()> {
        self.objects.write().insert(key.to_owned(), data);
        Ok(())
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> io::Result<Bytes> {
        let objects = self.objects.read();
        let obj = objects.get(key).ok_or_else(|| not_found(key))?;
        let size = obj.len() as u64;
        let end = offset.checked_add(len).filter(|&e| e <= size);
        match end {
            Some(end) => Ok(obj.slice(offset as usize..end as usize)),
            None => Err(out_of_range(key, offset, len, size)),
        }
    }

    fn size_of(&self, key: &str) -> io::Result<u64> {
        self.objects
            .read()
            .get(key)
            .map(|b| b.len() as u64)
            .ok_or_else(|| not_found(key))
    }

    fn list(&self) -> Vec<String> {
        self.objects.read().keys().cloned().collect()
    }

    fn delete(&self, key: &str) -> io::Result<bool> {
        Ok(self.objects.write().remove(key).is_some())
    }
}

/// On-disk store rooted at a directory; object keys map to file names.
/// Used when datasets are too large for memory or must persist across runs.
pub struct DiskStore {
    name: String,
    root: PathBuf,
}

impl DiskStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(name: impl Into<String>, root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(DiskStore {
            name: name.into(),
            root,
        })
    }

    fn path_of(&self, key: &str) -> io::Result<PathBuf> {
        // Keys are flat names; reject anything path-like to keep the store
        // confined to its root.
        if key.is_empty() || key.contains('/') || key.contains("..") || key.contains('\\') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("invalid object key: {key:?}"),
            ));
        }
        Ok(self.root.join(key))
    }
}

impl ObjectStore for DiskStore {
    fn name(&self) -> &str {
        &self.name
    }

    fn put(&self, key: &str, data: Bytes) -> io::Result<()> {
        let path = self.path_of(key)?;
        let tmp = path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&data)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> io::Result<Bytes> {
        let path = self.path_of(key)?;
        let mut f = fs::File::open(&path).map_err(|_| not_found(key))?;
        let size = f.metadata()?.len();
        if offset.checked_add(len).filter(|&e| e <= size).is_none() {
            return Err(out_of_range(key, offset, len, size));
        }
        f.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len as usize];
        f.read_exact(&mut buf)?;
        Ok(Bytes::from(buf))
    }

    fn size_of(&self, key: &str) -> io::Result<u64> {
        let path = self.path_of(key)?;
        fs::metadata(&path)
            .map(|m| m.len())
            .map_err(|_| not_found(key))
    }

    fn list(&self) -> Vec<String> {
        let mut keys: Vec<String> = fs::read_dir(&self.root)
            .into_iter()
            .flatten()
            .flatten()
            .filter(|e| e.path().extension().map(|x| x != "tmp").unwrap_or(true))
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        keys.sort();
        keys
    }

    fn delete(&self, key: &str) -> io::Result<bool> {
        let path = self.path_of(key)?;
        match fs::remove_file(&path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn ObjectStore) {
        store.put("a", Bytes::from_static(b"hello world")).unwrap();
        store.put("b", Bytes::from_static(b"0123456789")).unwrap();

        assert_eq!(store.size_of("a").unwrap(), 11);
        assert_eq!(store.get_range("a", 0, 5).unwrap().as_ref(), b"hello");
        assert_eq!(store.get_range("a", 6, 5).unwrap().as_ref(), b"world");
        assert_eq!(store.get_range("b", 0, 10).unwrap().as_ref(), b"0123456789");
        assert_eq!(store.get_range("b", 10, 0).unwrap().len(), 0);

        // Errors.
        assert_eq!(
            store.get_range("missing", 0, 1).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        assert_eq!(
            store.get_range("a", 6, 6).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        assert_eq!(
            store.get_range("a", u64::MAX, 2).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof,
            "offset+len overflow must not wrap"
        );
        assert_eq!(
            store.size_of("missing").unwrap_err().kind(),
            io::ErrorKind::NotFound
        );

        assert_eq!(store.list(), vec!["a".to_string(), "b".to_string()]);

        // Overwrite.
        store.put("a", Bytes::from_static(b"xy")).unwrap();
        assert_eq!(store.size_of("a").unwrap(), 2);

        // Delete.
        assert!(store.delete("a").unwrap());
        assert!(!store.delete("a").unwrap());
        assert_eq!(store.list(), vec!["b".to_string()]);
    }

    #[test]
    fn mem_store_contract() {
        let s = MemStore::new("mem");
        exercise(&s);
        assert_eq!(s.name(), "mem");
    }

    #[test]
    fn disk_store_contract() {
        let dir = std::env::temp_dir().join(format!("cbstore-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let s = DiskStore::open("disk", &dir).unwrap();
        exercise(&s);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn local_stores_read_over_one_stream() {
        let dir = std::env::temp_dir().join(format!("cbstore-streams-{}", std::process::id()));
        let disk = DiskStore::open("disk", &dir).unwrap();
        assert_eq!(MemStore::new("mem").streams(), 1);
        assert_eq!(disk.streams(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_rejects_path_traversal() {
        let dir = std::env::temp_dir().join(format!("cbstore-trav-{}", std::process::id()));
        let s = DiskStore::open("disk", &dir).unwrap();
        for bad in ["../evil", "a/b", "", "c\\d"] {
            assert_eq!(
                s.put(bad, Bytes::new()).unwrap_err().kind(),
                io::ErrorKind::InvalidInput,
                "key {bad:?} should be rejected"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_store_total_bytes() {
        let s = MemStore::new("m");
        s.put("x", Bytes::from(vec![0u8; 100])).unwrap();
        s.put("y", Bytes::from(vec![0u8; 50])).unwrap();
        assert_eq!(s.total_bytes(), 150);
    }
}
