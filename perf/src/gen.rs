//! Seeded input generators. The same seed gives the same bytes; the
//! program under test only ever sees the generated files.

/// xorshift64* seeded through splitmix64: small, fast, and owned by the
/// harness so inputs never change when a vendored `rand` does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below anything
    /// a workload's shape depends on.
    pub fn below(&mut self, n: u64) -> u64 {
        (self.next_u64() >> 11) % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// A seeded vocabulary: mixed-case words of 2–7 letters, one in sixteen
/// containing `the` so `grep -v the` has something to drop.
fn vocabulary(rng: &mut Rng, size: usize) -> Vec<Vec<u8>> {
    const LETTERS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGH";
    (0..size)
        .map(|i| {
            let len = rng.range(2, 7) as usize;
            let mut w: Vec<u8> = (0..len).map(|_| *rng.pick(LETTERS)).collect();
            if i % 16 == 0 {
                w.extend_from_slice(if i % 32 == 0 { b"the" } else { b"The" });
            }
            w
        })
        .collect()
}

/// Prose-like text: lines of about 64 bytes, words separated by single
/// spaces with occasional punctuation and digits. At least `bytes` long,
/// ending in a newline.
pub fn word_corpus(seed: u64, bytes: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed ^ 0x776f_7264);
    let vocab = vocabulary(&mut rng, 4096);
    let mut out = Vec::with_capacity(bytes + 128);
    let mut line_len = 0usize;
    while out.len() < bytes || line_len > 0 {
        let w = rng.pick(&vocab);
        out.extend_from_slice(w);
        line_len += w.len() + 1;
        if line_len > 60 {
            match rng.below(4) {
                0 => out.push(b'.'),
                1 => out.extend_from_slice(b", 42"),
                _ => {}
            }
            out.push(b'\n');
            line_len = 0;
        } else {
            out.push(b' ');
        }
    }
    out
}

/// NOAA-style fixed-width records, 100 bytes a line. Columns 89–92 hold
/// the air temperature in tenths of a degree (`0000`–`0650`); one record
/// in twenty reads `9999`, the format's "missing" marker.
pub fn noaa_records(seed: u64, lines: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed ^ 0x6e6f_6161);
    let mut out = Vec::with_capacity(lines * 100);
    for _ in 0..lines {
        // 87 digits of station, date and position, produced 16 at a time.
        let mut digits = 0;
        while digits < 87 {
            let mut x = rng.next_u64();
            for _ in 0..16.min(87 - digits) {
                out.push(b'0' + (x % 10) as u8);
                x /= 10;
                digits += 1;
            }
        }
        out.push(b'+');
        let t = if rng.below(20) == 0 {
            9999
        } else {
            rng.below(651)
        };
        out.extend_from_slice(format!("{t:04}").as_bytes());
        out.extend_from_slice(b"1000000\n");
    }
    out
}

/// One access log of at least `bytes` bytes: `host user method path status`
/// per line; about half the lines end in ` 200`.
pub fn access_log(seed: u64, file: usize, bytes: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed ^ 0x6c6f_6773 ^ ((file as u64) << 20));
    const STATUS: [u16; 6] = [200, 200, 200, 404, 500, 301];
    let mut out = Vec::with_capacity(bytes + 64);
    while out.len() < bytes {
        let path_len = rng.range(3, 12) as usize;
        let path: String = (0..path_len)
            .map(|_| (b'a' + rng.below(6) as u8) as char)
            .collect();
        out.extend_from_slice(
            format!(
                "10.{}.{}.{} u{} {} /p/{} {}\n",
                rng.below(256),
                rng.below(256),
                rng.below(256),
                rng.below(100),
                if rng.below(3) == 0 { "POST" } else { "GET" },
                path,
                rng.pick(&STATUS),
            )
            .as_bytes(),
        );
    }
    out
}

/// The name of log file `i` under `/logs` (zero-padded so glob order is
/// numeric order).
pub fn log_name(i: usize) -> String {
    format!("a{i:04}.log")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_by_seed() {
        assert_eq!(word_corpus(7, 10_000), word_corpus(7, 10_000));
        assert_ne!(word_corpus(7, 10_000), word_corpus(8, 10_000));
        assert_eq!(noaa_records(7, 100), noaa_records(7, 100));
        assert_ne!(noaa_records(7, 100), noaa_records(8, 100));
        assert_eq!(access_log(7, 3, 4096), access_log(7, 3, 4096));
        assert_ne!(access_log(7, 3, 4096), access_log(7, 4, 4096));
    }

    #[test]
    fn corpus_has_the_shape_the_scripts_rely_on() {
        let text = word_corpus(1, 50_000);
        assert!(text.len() >= 50_000 && text.ends_with(b"\n"));
        assert!(text[0].is_ascii_alphabetic());
        let lines: Vec<&[u8]> = text.split(|&b| b == b'\n').collect();
        assert!(lines.iter().all(|l| l.len() < 80));
        let lower = text.to_ascii_lowercase();
        let with_the = lower
            .split(|&b| b == b'\n')
            .filter(|l| l.windows(3).any(|w| w == b"the"))
            .count();
        // `grep -v the` must both drop and keep a real share of the lines.
        assert!(with_the * 10 > lines.len() && with_the * 10 < lines.len() * 9);
    }

    #[test]
    fn noaa_records_are_fixed_width_with_a_temperature_field() {
        let recs = noaa_records(1, 500);
        assert_eq!(recs.len(), 500 * 100);
        let mut missing = 0;
        for line in recs.chunks(100) {
            assert_eq!(line[99], b'\n');
            let t: u32 = std::str::from_utf8(&line[88..92]).unwrap().parse().unwrap();
            assert!(t <= 650 || t == 9999);
            missing += (t == 9999) as usize;
        }
        assert!(missing > 0 && missing < 100);
    }

    #[test]
    fn access_logs_have_five_fields_and_both_kinds_of_status() {
        let log = access_log(1, 0, 4096);
        assert!(log.len() >= 4096);
        let text = String::from_utf8(log).unwrap();
        assert!(text.lines().all(|l| l.split(' ').count() == 5));
        assert!(text.lines().any(|l| l.ends_with(" 200")));
        assert!(text.lines().any(|l| !l.ends_with(" 200")));
    }
}
