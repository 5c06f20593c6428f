//! Chunked streaming ingest ([`TraceReader`]).

use crate::profile::{TraceBuilder, TraceProfile};
use std::fmt;
use std::io::Read;
use std::path::Path;

/// Default streaming chunk size (64 KiB): large enough to amortize
/// syscalls, small enough that the resident ingest footprint is
/// negligible next to the compacted profile.
pub const DEFAULT_CHUNK_BYTES: usize = 64 * 1024;

/// Why a trace could not be ingested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The underlying reader failed.
    Io(String),
    /// A line is malformed; `line` is 1-based.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What is wrong with it.
        message: String,
    },
    /// Fewer than two samples: a trace needs at least one interval.
    Empty,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Parse { line, message } => write!(f, "line {line}: {message}"),
            TraceError::Empty => {
                write!(f, "a trace needs at least two samples (one interval)")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Streams a trace log through fixed-size chunk buffers into a
/// [`TraceProfile`] — the file is never materialized whole. Resident
/// input memory is one chunk buffer plus a carry buffer for the line
/// split across a chunk boundary; a single line longer than the chunk
/// size is rejected rather than buffered, so the carry (and with it
/// the peak, recorded on the profile) stays bounded by the chunk size.
#[derive(Debug, Clone, Copy)]
pub struct TraceReader {
    chunk_bytes: usize,
}

impl Default for TraceReader {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceReader {
    /// A reader with the default chunk size.
    #[must_use]
    pub fn new() -> Self {
        Self {
            chunk_bytes: DEFAULT_CHUNK_BYTES,
        }
    }

    /// A reader with an explicit chunk size (tests use tiny chunks to
    /// exercise the carry path on every line).
    ///
    /// # Panics
    ///
    /// Panics on a chunk smaller than 64 bytes (one line must fit).
    #[must_use]
    pub fn with_chunk_bytes(chunk_bytes: usize) -> Self {
        assert!(chunk_bytes >= 64, "chunk must hold at least one line");
        Self { chunk_bytes }
    }

    /// The configured chunk size.
    #[must_use]
    pub fn chunk_bytes(&self) -> usize {
        self.chunk_bytes
    }

    /// Ingests a trace log from any byte stream.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on read failures, [`TraceError::Parse`]
    /// (with a 1-based line number) on malformed lines, and
    /// [`TraceError::Empty`] when fewer than two samples remain.
    pub fn ingest<R: Read>(&self, mut source: R) -> Result<TraceProfile, TraceError> {
        let _obs = tdc_obs::span_timed("trace.ingest", &tdc_obs::metrics::TRACES_INGEST_NS);
        let mut buf = vec![0u8; self.chunk_bytes];
        let mut carry: Vec<u8> = Vec::with_capacity(self.chunk_bytes);
        let mut parser = LineParser::new();
        let mut peak = self.chunk_bytes;
        loop {
            let n = source
                .read(&mut buf)
                .map_err(|e| TraceError::Io(e.to_string()))?;
            if n == 0 {
                break;
            }
            let mut start = 0;
            while let Some(pos) = buf[start..n].iter().position(|b| *b == b'\n') {
                let end = start + pos;
                if carry.is_empty() {
                    parser.feed(&buf[start..end])?;
                } else {
                    carry.extend_from_slice(&buf[start..end]);
                    parser.feed(&carry)?;
                    carry.clear();
                }
                start = end + 1;
            }
            carry.extend_from_slice(&buf[start..n]);
            // The carry never exceeds chunk-sized growth per read; a
            // line that cannot fit one chunk is rejected here, which
            // is what keeps peak residency O(chunk), not O(file).
            if carry.len() > self.chunk_bytes {
                return Err(TraceError::Parse {
                    line: parser.line + 1,
                    message: format!("line exceeds the {} byte chunk size", self.chunk_bytes),
                });
            }
            peak = peak.max(self.chunk_bytes + carry.capacity());
        }
        if !carry.is_empty() {
            parser.feed(&carry)?;
        }
        let profile = parser.finish(peak)?;
        if tdc_obs::enabled() {
            tdc_obs::metrics::TRACES_INGEST_SAMPLES.add(profile.samples() as u64);
        }
        Ok(profile)
    }

    /// Ingests a trace log from a regular file.
    ///
    /// # Errors
    ///
    /// As [`TraceReader::ingest`], plus [`TraceError::Io`] when the
    /// path is not a regular file (a FIFO or a device could block the
    /// caller forever, so it is never opened) or cannot be opened.
    pub fn ingest_path(&self, path: &Path) -> Result<TraceProfile, TraceError> {
        let io = |e: std::io::Error| TraceError::Io(e.to_string());
        if !std::fs::metadata(path).map_err(io)?.is_file() {
            return Err(TraceError::Io("not a regular file".to_owned()));
        }
        let file = std::fs::File::open(path).map_err(io)?;
        self.ingest(std::io::BufReader::with_capacity(self.chunk_bytes, file))
    }
}

/// Per-line parse state: validates everything the builder would assert
/// on, so ingest reports line-numbered errors instead of panicking.
struct LineParser {
    builder: Option<TraceBuilder>,
    line: usize,
    prev_t: Option<f64>,
}

impl LineParser {
    fn new() -> Self {
        Self {
            builder: None,
            line: 0,
            prev_t: None,
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, TraceError> {
        Err(TraceError::Parse {
            line: self.line,
            message: message.into(),
        })
    }

    fn feed(&mut self, raw: &[u8]) -> Result<(), TraceError> {
        self.line += 1;
        let Ok(text) = std::str::from_utf8(raw) else {
            return self.err("not valid UTF-8");
        };
        let text = text.trim();
        if text.is_empty() || text.starts_with('#') {
            return Ok(());
        }
        let mut fields = text.split(',');
        let t = self.number(fields.next(), "timestamp_hours")?;
        let util = self.number(fields.next(), "utilization")?;
        let intensity = match fields.next() {
            None => None,
            Some(field) => Some(self.parse_field(field, "intensity_g_per_kwh")?),
        };
        if fields.next().is_some() {
            return self.err("expected 2 or 3 comma-separated columns");
        }
        if !t.is_finite() {
            return self.err(format!("timestamp must be finite, got {t}"));
        }
        if let Some(prev) = self.prev_t {
            if t <= prev {
                return self.err(format!(
                    "timestamps must be strictly increasing ({t} after {prev})"
                ));
            }
        }
        if !(0.0..=1.0).contains(&util) {
            return self.err(format!("utilization must be in [0, 1], got {util}"));
        }
        if let Some(g) = intensity {
            if !(g.is_finite() && g >= 0.0) {
                return self.err(format!("intensity must be non-negative, got {g}"));
            }
        }
        let builder = self
            .builder
            .get_or_insert_with(|| TraceBuilder::new(intensity.is_some()));
        if builder.with_intensity() != intensity.is_some() {
            let (expected, got) = if builder.with_intensity() {
                (3, 2)
            } else {
                (2, 3)
            };
            return Err(TraceError::Parse {
                line: self.line,
                message: format!("expected {expected} columns like the first sample, got {got}"),
            });
        }
        builder.push(t, util, intensity);
        self.prev_t = Some(t);
        Ok(())
    }

    fn number(&self, field: Option<&str>, name: &str) -> Result<f64, TraceError> {
        match field {
            None => self.err(format!("missing {name} column")),
            Some(field) => self.parse_field(field, name),
        }
    }

    fn parse_field(&self, field: &str, name: &str) -> Result<f64, TraceError> {
        field.trim().parse::<f64>().map_err(|_| TraceError::Parse {
            line: self.line,
            message: format!("{name}: expected a number, got `{}`", field.trim()),
        })
    }

    fn finish(self, peak_buffer_bytes: usize) -> Result<TraceProfile, TraceError> {
        match self.builder {
            Some(b) if b.samples() >= 2 => Ok(b.build_with_peak(peak_buffer_bytes)),
            _ => Err(TraceError::Empty),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# t_hours,utilization,intensity_g_per_kwh
0.0,0.10,100
4.0,0.10,100

8.0,0.90,500
16.0,0.50,100
24.0,0.0,0
";

    #[test]
    fn three_column_log_parses_with_comments_and_blanks() {
        let p = TraceReader::new().ingest(SAMPLE.as_bytes()).unwrap();
        assert_eq!(p.samples(), 5);
        assert_eq!(p.segments(), 3);
        assert!(p.has_intensity());
        assert!((p.integrals().util_dt - 12.0).abs() < 1e-12);
    }

    #[test]
    fn two_column_log_has_no_intensity() {
        let p = TraceReader::new()
            .ingest("0,0.5\n1,0.5\n2,0.25\n3,0.25\n".as_bytes())
            .unwrap();
        assert!(!p.has_intensity());
        assert_eq!(p.segments(), 2);
        assert_eq!(p.pricing().intensity_kg_per_kwh, None);
    }

    #[test]
    fn tiny_chunks_reproduce_the_one_shot_profile_bitwise() {
        let whole = TraceReader::new().ingest(SAMPLE.as_bytes()).unwrap();
        // 64-byte chunks force the carry path on nearly every line.
        let chunked = TraceReader::with_chunk_bytes(64)
            .ingest(SAMPLE.as_bytes())
            .unwrap();
        assert_eq!(whole, chunked);
        assert_eq!(whole.fingerprint(), chunked.fingerprint());
        assert_eq!(
            whole.pricing().mean_utilization.to_bits(),
            chunked.pricing().mean_utilization.to_bits()
        );
    }

    #[test]
    fn peak_resident_buffering_is_bounded_by_the_chunk_size() {
        // A log much larger than the chunk: residency must not scale
        // with it.
        let mut big = String::new();
        for i in 0..10_000 {
            let util = f64::from(i % 7) / 10.0;
            big.push_str(&format!("{i},{util},{}\n", 100 + i % 400));
        }
        let chunk = 4096;
        let p = TraceReader::with_chunk_bytes(chunk)
            .ingest(big.as_bytes())
            .unwrap();
        assert_eq!(p.samples(), 10_000);
        assert!(
            p.peak_buffer_bytes() <= 3 * chunk,
            "peak {} exceeds 3 chunks of {chunk}",
            p.peak_buffer_bytes()
        );
        assert!(big.len() > 10 * chunk, "the log must dwarf the chunk");
    }

    #[test]
    fn a_line_longer_than_the_chunk_is_rejected_not_buffered() {
        let mut log = String::from("0,0.5\n1,0.5\n");
        log.push_str(&"9".repeat(200));
        let err = TraceReader::with_chunk_bytes(64)
            .ingest(log.as_bytes())
            .unwrap_err();
        assert!(err.to_string().contains("chunk size"), "{err}");
    }

    #[test]
    fn parse_errors_carry_one_based_line_numbers() {
        let err = TraceReader::new()
            .ingest("0,0.5\n1,oops\n".as_bytes())
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 2: utilization: expected a number, got `oops`"
        );
        let err = TraceReader::new()
            .ingest("# header\n0,0.5\n0,0.5\n".as_bytes())
            .unwrap_err();
        assert!(err.to_string().starts_with("line 3:"), "{err}");
        assert!(err.to_string().contains("strictly increasing"), "{err}");
        let err = TraceReader::new().ingest("0,1.5\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("[0, 1]"), "{err}");
        let err = TraceReader::new()
            .ingest("0,0.5,100\n1,0.5\n".as_bytes())
            .unwrap_err();
        assert!(err.to_string().contains("3 columns"), "{err}");
        let err = TraceReader::new()
            .ingest("0,0.5,100,7\n".as_bytes())
            .unwrap_err();
        assert!(err.to_string().contains("2 or 3"), "{err}");
    }

    #[test]
    fn empty_and_single_sample_logs_error_cleanly() {
        for text in ["", "# only a comment\n", "0,0.5\n"] {
            assert_eq!(
                TraceReader::new().ingest(text.as_bytes()).unwrap_err(),
                TraceError::Empty,
                "{text:?}"
            );
        }
    }

    #[test]
    fn missing_file_reports_io() {
        let err = TraceReader::new()
            .ingest_path(Path::new("/nonexistent/trace.csv"))
            .unwrap_err();
        assert!(matches!(err, TraceError::Io(_)));
        // A path that exists but is no regular file is never opened.
        let err = TraceReader::new()
            .ingest_path(&std::env::temp_dir())
            .unwrap_err();
        assert_eq!(err, TraceError::Io("not a regular file".to_owned()));
    }
}
