//! STRATA's tuple model (paper §2): metadata carrying the event time
//! `τ` and AM-specific identifiers, and a key-value payload.
//!
//! The combined notation of the paper is
//! `⟨τ, job, layer, [specimen, portion,] [k₁:v₁, k₂:v₂, …]⟩`:
//! `job` and `layer` are set by every source; `specimen` and
//! `portion` appear downstream of the `partition` method.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use strata_amsim::OtImage;
use strata_spe::{Timestamp, Timestamped};

/// Nanoseconds since the process-wide monotonic epoch; used to
/// measure end-to-end latency (time between "all data available to
/// the system" and "result delivered", §3 of the paper).
pub fn ingest_clock_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A list of `(id, x, y, w, h)` rectangles in image pixels — the
/// shape of the specimen layout carried by the printing-parameters
/// source.
pub type RectList = Vec<(u32, u32, u32, u32, u32)>;

/// A payload value. Heavy variants ([`Value::Image`],
/// [`Value::Points`], …) are [`Arc`]-backed so that cloning a tuple
/// for operator fan-out never copies pixel data.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A signed integer.
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(Arc<str>),
    /// Raw bytes.
    Bytes(Arc<[u8]>),
    /// A gray-scale OT image (or a crop of one).
    Image(Arc<OtImage>),
    /// Rectangles `(id, x, y, w, h)` in image pixels — e.g. the
    /// specimen layout from the printing-parameters source.
    Rects(Arc<RectList>),
    /// In-plane points `(x, y)` in mm — e.g. event locations.
    Points(Arc<Vec<(f64, f64)>>),
}

/// A payload key. Keys written in code are `&'static str` and cost no
/// allocation; keys decoded from a message or computed at run time
/// are shared [`Arc<str>`]s. Equality and order compare the text, so a
/// static and a shared key with the same text are the same key.
#[derive(Clone)]
pub struct Key(KeyRepr);

#[derive(Clone)]
enum KeyRepr {
    Static(&'static str),
    Shared(Arc<str>),
}

impl Key {
    /// The key's text.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            KeyRepr::Static(s) => s,
            KeyRepr::Shared(s) => s,
        }
    }
}

impl From<&'static str> for Key {
    fn from(key: &'static str) -> Self {
        Key(KeyRepr::Static(key))
    }
}

impl From<String> for Key {
    fn from(key: String) -> Self {
        Key(KeyRepr::Shared(Arc::from(key)))
    }
}

impl From<Arc<str>> for Key {
    fn from(key: Arc<str>) -> Self {
        Key(KeyRepr::Shared(key))
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// The key-value payload of a tuple: one vector of entries kept
/// sorted by key, without duplicates. Setting keys in ascending order
/// appends; any other order binary-searches and shifts the tail.
#[derive(Clone, PartialEq, Default)]
pub struct Payload {
    entries: Vec<(Key, Value)>,
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl Payload {
    /// Creates an empty payload.
    pub fn new() -> Self {
        Payload::default()
    }

    /// Creates an empty payload with room for `capacity` entries, so
    /// that setting that many allocates once.
    pub fn with_capacity(capacity: usize) -> Self {
        Payload {
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Number of key-value pairs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the payload has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The raw value under `key`.
    #[inline]
    pub fn get(&self, key: &str) -> Option<&Value> {
        // Payloads hold a handful of entries, and most keys differ in
        // length, which `==` checks first: a scan beats a binary
        // search's hard-to-predict branches here.
        self.entries
            .iter()
            .find(|(k, _)| k.as_str() == key)
            .map(|(_, v)| v)
    }

    /// Sets `key` to an arbitrary [`Value`]; a key already present
    /// takes the new value.
    #[inline]
    pub fn set(&mut self, key: impl Into<Key>, value: Value) -> &mut Self {
        let key = key.into();
        match self.entries.last() {
            Some((last, _)) if *last >= key => self.insert(key, value),
            _ => self.entries.push((key, value)),
        }
        self
    }

    /// `set` for a key that does not sort after every present key:
    /// kept out of line so that the append path inlines.
    fn insert(&mut self, key: Key, value: Value) {
        match self.entries.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (key, value)),
        }
    }

    /// Sets an integer.
    pub fn set_int(&mut self, key: impl Into<Key>, value: i64) -> &mut Self {
        self.set(key, Value::Int(value))
    }

    /// Sets a float.
    pub fn set_float(&mut self, key: impl Into<Key>, value: f64) -> &mut Self {
        self.set(key, Value::Float(value))
    }

    /// Sets a boolean.
    pub fn set_bool(&mut self, key: impl Into<Key>, value: bool) -> &mut Self {
        self.set(key, Value::Bool(value))
    }

    /// Sets a string.
    pub fn set_str(&mut self, key: impl Into<Key>, value: impl AsRef<str>) -> &mut Self {
        self.set(key, Value::Str(Arc::from(value.as_ref())))
    }

    /// Sets an image (shared, not copied).
    pub fn set_image(&mut self, key: impl Into<Key>, image: Arc<OtImage>) -> &mut Self {
        self.set(key, Value::Image(image))
    }

    /// Sets a rectangle list.
    pub fn set_rects(&mut self, key: impl Into<Key>, rects: Arc<RectList>) -> &mut Self {
        self.set(key, Value::Rects(rects))
    }

    /// Sets a point list.
    pub fn set_points(&mut self, key: impl Into<Key>, points: Arc<Vec<(f64, f64)>>) -> &mut Self {
        self.set(key, Value::Points(points))
    }

    /// Reads an integer.
    pub fn int(&self, key: &str) -> Option<i64> {
        match self.get(key)? {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Reads a float (integers widen).
    pub fn float(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Reads a boolean.
    pub fn bool(&self, key: &str) -> Option<bool> {
        match self.get(key)? {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Reads a string.
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Value::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Reads an image.
    pub fn image(&self, key: &str) -> Option<&Arc<OtImage>> {
        match self.get(key)? {
            Value::Image(v) => Some(v),
            _ => None,
        }
    }

    /// Reads a rectangle list.
    pub fn rects(&self, key: &str) -> Option<&Arc<RectList>> {
        match self.get(key)? {
            Value::Rects(v) => Some(v),
            _ => None,
        }
    }

    /// Reads a point list.
    pub fn points(&self, key: &str) -> Option<&Arc<Vec<(f64, f64)>>> {
        match self.get(key)? {
            Value::Points(v) => Some(v),
            _ => None,
        }
    }

    /// Iterates entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Absorbs all entries of `other` (the `fuse` method's payload
    /// concatenation; the paper assumes keys are unique across fused
    /// tuples, so collisions simply keep the later value).
    pub fn merge(&mut self, other: &Payload) {
        for (k, v) in &other.entries {
            self.set(k.clone(), v.clone());
        }
    }
}

/// Tuple metadata: event time, job and layer identifiers, the
/// specimen/portion set by `partition`, and the ingestion instant
/// used for latency accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metadata {
    /// Event time `τ`, set by the source on creation.
    pub timestamp: Timestamp,
    /// The printing job the data belongs to.
    pub job: u32,
    /// The layer the data refers to.
    pub layer: u32,
    /// The specimen, once `partition` isolated one.
    pub specimen: Option<u32>,
    /// The layer portion (e.g. cell), once `partition` isolated one.
    pub portion: Option<u32>,
    /// [`ingest_clock_ns`] at the moment the originating raw data
    /// entered STRATA; carried through the pipeline, maximized by
    /// fusing/aggregating operators.
    pub ingest_ns: u64,
}

/// The unit of data flowing through STRATA pipelines.
#[derive(Debug, Clone, PartialEq)]
pub struct AmTuple {
    metadata: Metadata,
    payload: Payload,
}

impl AmTuple {
    /// Creates a tuple with the given event time, job and layer, an
    /// unset specimen/portion, and the current ingest instant.
    pub fn new(timestamp: Timestamp, job: u32, layer: u32) -> Self {
        AmTuple {
            metadata: Metadata {
                timestamp,
                job,
                layer,
                specimen: None,
                portion: None,
                ingest_ns: ingest_clock_ns(),
            },
            payload: Payload::new(),
        }
    }

    /// Creates a tuple from explicit metadata and a payload built
    /// beforehand (codec, tests, and operators that size the payload).
    pub fn from_parts(metadata: Metadata, payload: Payload) -> Self {
        AmTuple { metadata, payload }
    }

    /// A new tuple inheriting this tuple's metadata (including the
    /// ingest instant) with an empty payload — the usual way operator
    /// functions build their outputs.
    pub fn derive(&self) -> AmTuple {
        AmTuple {
            metadata: self.metadata,
            payload: Payload::new(),
        }
    }

    /// The metadata.
    pub fn metadata(&self) -> &Metadata {
        &self.metadata
    }

    /// Mutable metadata access.
    pub fn metadata_mut(&mut self) -> &mut Metadata {
        &mut self.metadata
    }

    /// The payload.
    pub fn payload(&self) -> &Payload {
        &self.payload
    }

    /// Mutable payload access.
    pub fn payload_mut(&mut self) -> &mut Payload {
        &mut self.payload
    }

    /// Sets the specimen (builder style).
    pub fn with_specimen(mut self, specimen: u32) -> Self {
        self.metadata.specimen = Some(specimen);
        self
    }

    /// Sets the portion (builder style).
    pub fn with_portion(mut self, portion: u32) -> Self {
        self.metadata.portion = Some(portion);
        self
    }

    /// Latency from this tuple's ingest instant to now.
    pub fn latency(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(ingest_clock_ns().saturating_sub(self.metadata.ingest_ns))
    }
}

impl Timestamped for AmTuple {
    fn timestamp(&self) -> Timestamp {
        self.metadata.timestamp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let mut t = AmTuple::new(Timestamp::from_millis(5), 7, 3);
        assert_eq!(t.timestamp(), Timestamp::from_millis(5));
        assert_eq!(t.metadata().job, 7);
        assert_eq!(t.metadata().layer, 3);
        assert_eq!(t.metadata().specimen, None);
        t.payload_mut().set_int("count", 42).set_str("unit", "px");
        assert_eq!(t.payload().int("count"), Some(42));
        assert_eq!(t.payload().str("unit"), Some("px"));
        assert_eq!(t.payload().int("unit"), None, "type-checked access");
        assert_eq!(t.payload().float("count"), Some(42.0), "int widens");
    }

    #[test]
    fn derive_keeps_metadata_not_payload() {
        let mut t = AmTuple::new(Timestamp::from_millis(1), 1, 2).with_specimen(4);
        t.payload_mut().set_int("x", 1);
        let d = t.derive();
        assert_eq!(d.metadata(), t.metadata());
        assert!(d.payload().is_empty());
    }

    #[test]
    fn merge_concatenates_payloads() {
        let mut a = Payload::new();
        a.set_int("a", 1);
        let mut b = Payload::new();
        b.set_int("b", 2);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.int("b"), Some(2));
    }

    #[test]
    fn image_payloads_share_not_copy() {
        let img = Arc::new(OtImage::new(10, 10));
        let mut t = AmTuple::new(Timestamp::MIN, 0, 0);
        t.payload_mut().set_image("image", Arc::clone(&img));
        let t2 = t.clone();
        assert!(Arc::ptr_eq(
            t.payload().image("image").unwrap(),
            t2.payload().image("image").unwrap()
        ));
    }

    #[test]
    fn ingest_clock_is_monotone() {
        let a = ingest_clock_ns();
        let b = ingest_clock_ns();
        assert!(b >= a);
        let t = AmTuple::new(Timestamp::MIN, 0, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(t.latency() >= std::time::Duration::from_millis(2));
    }

    /// Seeded random `set`/`set_*`/`merge`/`get`/`float` sequences,
    /// with static and shared keys mixed, against a `BTreeMap` model:
    /// a later value wins (on `merge` too), `iter` runs in key order,
    /// `len` matches, `float` widens integers, and payloads holding the
    /// same entries are equal whichever kind of key they were set with.
    #[test]
    fn payload_matches_a_btreemap_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;

        const KEYS: [&str; 10] = [
            "",
            "a",
            "ab",
            "b",
            "cell_mm",
            "frac_cold",
            "frac_very_cold",
            "x_mm",
            "y_mm",
            "z",
        ];
        fn key(rng: &mut StdRng) -> (Key, String) {
            let text = KEYS[rng.gen_range(0..KEYS.len())];
            let key = match rng.gen_range(0..3u32) {
                0 => Key::from(text),
                1 => Key::from(text.to_string()),
                _ => Key::from(Arc::<str>::from(text)),
            };
            (key, text.to_string())
        }
        fn value(rng: &mut StdRng) -> Value {
            match rng.gen_range(0..4u32) {
                0 => Value::Int(rng.gen_range(-3..3i64)),
                1 => Value::Float(f64::from(rng.gen_range(0..8u32)) / 4.0),
                2 => Value::Bool(rng.gen()),
                _ => Value::Str(Arc::from(KEYS[rng.gen_range(0..KEYS.len())])),
            }
        }
        fn set(p: &mut Payload, model: &mut BTreeMap<String, Value>, rng: &mut StdRng) {
            let (k, text) = key(rng);
            let v = value(rng);
            match &v {
                Value::Int(i) => p.set_int(k, *i),
                Value::Float(x) => p.set_float(k, *x),
                Value::Bool(b) => p.set_bool(k, *b),
                other => p.set(k, other.clone()),
            };
            model.insert(text, v);
        }

        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut p = Payload::new();
            let mut model = BTreeMap::new();
            for _ in 0..rng.gen_range(1..40usize) {
                match rng.gen_range(0..4u32) {
                    0 | 1 => set(&mut p, &mut model, &mut rng),
                    2 => {
                        let mut other = Payload::new();
                        for _ in 0..rng.gen_range(0..6usize) {
                            set(&mut other, &mut model, &mut rng);
                        }
                        p.merge(&other);
                    }
                    _ => {
                        let text = KEYS[rng.gen_range(0..KEYS.len())];
                        assert_eq!(p.get(text), model.get(text), "seed {seed}: get {text:?}");
                        let widened = match model.get(text) {
                            Some(Value::Float(x)) => Some(*x),
                            Some(Value::Int(i)) => Some(*i as f64),
                            _ => None,
                        };
                        assert_eq!(p.float(text), widened, "seed {seed}: float {text:?}");
                    }
                }
                assert_eq!(p.len(), model.len(), "seed {seed}");
                assert!(
                    p.iter().eq(model.iter().map(|(k, v)| (k.as_str(), v))),
                    "seed {seed}: {p:?} against {model:?}"
                );
            }
            // The same entries set in reverse order, all with static or
            // all with shared keys, make an equal payload.
            let mut statics = Payload::new();
            let mut shared = Payload::new();
            for (k, v) in model.iter().rev() {
                let text = KEYS.iter().find(|t| *t == k).expect("a pool key");
                statics.set(*text, v.clone());
                shared.set(Arc::<str>::from(k.as_str()), v.clone());
            }
            assert_eq!(statics, p, "seed {seed}");
            assert_eq!(shared, statics, "seed {seed}");
        }
    }

    #[test]
    fn payload_iterates_in_key_order() {
        let mut p = Payload::new();
        p.set_int("zz", 1).set_int("aa", 2);
        let keys: Vec<&str> = p.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["aa", "zz"]);
    }
}
