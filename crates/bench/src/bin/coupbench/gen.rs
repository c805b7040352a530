//! Seeded op-stream generation: splitmix64, an inverse-CDF Zipf sampler, and
//! the per-producer stream every runtime workload and its oracle replay.
//!
//! The program under test receives only the generated `(lane, value)` pushes
//! and lane reads; the same seed always yields the same stream, so the oracle
//! is a sequential replay of the generator, not a recording of the run.

/// One step of the splitmix64 sequence (Steele, Lea, Flood 2014).
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf(θ) over `0..n` by inverse CDF: rank `r` has weight `1 / (r+1)^θ`.
///
/// The CDF is kept as `u64` thresholds so a sample is one integer binary
/// search over a raw splitmix64 word. Rank `r` is then scattered to lane
/// `r * ODD mod n` (a bijection for power-of-two `n`), so the hot ranks land
/// on different cache lines instead of sharing the first one.
#[derive(Debug, Clone)]
pub struct Zipf {
    thresholds: Vec<u64>,
    /// `first[b]`: the first rank whose threshold reaches bucket `b` of the
    /// word's top [`BUCKET_BITS`] bits — narrows each search to a few ranks,
    /// so the generator stays a small share of producer time.
    first: Vec<u32>,
    mask: usize,
}

/// Odd multiplier of the rank → lane scatter (Knuth's 2^32 / φ).
const SCATTER: usize = 2_654_435_761;
/// Top bits of a word that index [`Zipf::first`].
const BUCKET_BITS: u32 = 12;

impl Zipf {
    /// Builds the sampler. `n` must be a power of two.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n.is_power_of_two(), "Zipf domain must be a power of two");
        let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut running = 0.0;
        let mut thresholds: Vec<u64> = weights
            .iter()
            .map(|w| {
                running += w;
                // 2^64 as f64; the `as` cast saturates, so the tail is safe.
                (running / total * 18_446_744_073_709_551_616.0) as u64
            })
            .collect();
        // Rounding must not leave a gap above the last rank.
        *thresholds.last_mut().expect("n >= 1") = u64::MAX;
        let first = (0..=1u64 << BUCKET_BITS)
            .map(|bucket| {
                let floor = if bucket == 1 << BUCKET_BITS {
                    u64::MAX
                } else {
                    bucket << (64 - BUCKET_BITS)
                };
                thresholds.partition_point(|&t| t < floor).min(n - 1) as u32
            })
            .collect();
        Zipf {
            thresholds,
            first,
            mask: n - 1,
        }
    }

    /// The rank (0 = hottest) a uniform 64-bit word selects: the first rank
    /// whose cumulative threshold is at least `word`.
    #[inline]
    pub fn rank(&self, word: u64) -> usize {
        let bucket = (word >> (64 - BUCKET_BITS)) as usize;
        let (low, high) = (self.first[bucket] as usize, self.first[bucket + 1] as usize);
        low + self.thresholds[low..=high]
            .partition_point(|&t| t < word)
            .min(high - low)
    }

    /// [`Zipf::rank`] by a search of the whole table: the reference the
    /// bucketed search is tested against.
    #[cfg(test)]
    pub fn rank_unbucketed(&self, word: u64) -> usize {
        self.thresholds
            .partition_point(|&t| t < word)
            .min(self.mask)
    }

    /// The lane a uniform 64-bit word selects.
    #[inline]
    pub fn lane(&self, word: u64) -> usize {
        self.rank(word).wrapping_mul(SCATTER) & self.mask
    }
}

/// How a stream picks lanes.
#[derive(Debug, Clone)]
pub enum LaneDist {
    /// Uniform over `0..=mask` (`mask + 1` lanes, a power of two).
    Uniform { mask: usize },
    /// Zipf-skewed.
    Zipf(Zipf),
}

impl LaneDist {
    /// Uniform or Zipf(θ) over `lanes` lanes (a power of two).
    pub fn new(lanes: usize, zipf_theta: Option<f64>) -> Self {
        assert!(lanes.is_power_of_two(), "lane count must be a power of two");
        match zipf_theta {
            Some(theta) => LaneDist::Zipf(Zipf::new(lanes, theta)),
            None => LaneDist::Uniform { mask: lanes - 1 },
        }
    }
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `push(lane, 1)`.
    Push(usize),
    /// A read of `lane` (exact or stale, the workload decides).
    Read(usize),
}

/// One producer's deterministic op stream.
#[derive(Debug, Clone)]
pub struct OpStream<'a> {
    state: u64,
    remaining: u64,
    reads_per_1000: u64,
    dist: &'a LaneDist,
}

impl<'a> OpStream<'a> {
    /// The stream of producer `producer` for run seed `seed`: `ops`
    /// operations of which about `reads_per_1000` per mille are reads.
    pub fn new(
        seed: u64,
        producer: usize,
        ops: u64,
        reads_per_1000: u32,
        dist: &'a LaneDist,
    ) -> Self {
        // Decorrelate producers: one splitmix step over a per-producer offset.
        let mut state = seed ^ (producer as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        splitmix64(&mut state);
        OpStream {
            state,
            remaining: ops,
            reads_per_1000: u64::from(reads_per_1000),
            dist,
        }
    }
}

impl Iterator for OpStream<'_> {
    type Item = Op;

    #[inline]
    fn next(&mut self) -> Option<Op> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let word = splitmix64(&mut self.state);
        let lane = match self.dist {
            // High bits pick the lane, low bits the op kind: independent.
            LaneDist::Uniform { mask } => (word >> 32) as usize & mask,
            LaneDist::Zipf(zipf) => zipf.lane(word),
        };
        // Low 16 bits scaled to 0..1000 without a division.
        if ((word & 0xFFFF) * 1000) >> 16 < self.reads_per_1000 {
            Some(Op::Read(lane))
        } else {
            Some(Op::Push(lane))
        }
    }
}

/// What a sequential replay of every producer's stream must leave behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Oracle {
    /// Final value of every lane (pushes add 1).
    pub lanes: Vec<u64>,
    /// Pushes over all producers.
    pub pushes: u64,
    /// Reads over all producers.
    pub reads: u64,
}

impl Oracle {
    /// Replays the streams of `producers` producers sharing `ops` operations.
    pub fn replay(
        seed: u64,
        producers: usize,
        ops: u64,
        reads_per_1000: u32,
        lanes: usize,
        dist: &LaneDist,
    ) -> Self {
        let mut oracle = Oracle {
            lanes: vec![0; lanes],
            pushes: 0,
            reads: 0,
        };
        for producer in 0..producers {
            let share = producer_share(ops, producers, producer);
            for op in OpStream::new(seed, producer, share, reads_per_1000, dist) {
                match op {
                    Op::Push(lane) => {
                        oracle.lanes[lane] += 1;
                        oracle.pushes += 1;
                    }
                    Op::Read(_) => oracle.reads += 1,
                }
            }
        }
        oracle
    }

    /// Lost plus duplicated updates: Σ |snapshot − oracle| over lanes.
    pub fn mismatch(&self, snapshot: &[u64]) -> u64 {
        assert_eq!(snapshot.len(), self.lanes.len(), "snapshot width");
        snapshot
            .iter()
            .zip(&self.lanes)
            .map(|(&got, &want)| got.abs_diff(want))
            .sum()
    }
}

/// Producer `producer`'s share of `ops` split over `producers` (the first
/// producers absorb the remainder).
pub fn producer_share(ops: u64, producers: usize, producer: usize) -> u64 {
    let producers = producers as u64;
    ops / producers + u64::from((producer as u64) < ops % producers)
}
