//! Seeded workload generators. Every byte the load generator sends is
//! drawn from a [`Rng`] seeded by `--seed`, so one seed always yields
//! the same command stream; only the server's replies (session ids,
//! timing) differ between runs.

/// The scheduler's default fairness quantum (lines per session per
/// sweep), which the workloads size their bursts against.
pub const QUANTUM: usize = 32;

/// `line_rtt` ops kept in flight on its one connection: 16 lines, half
/// a quantum.
pub const WINDOW: usize = 8;

/// Command buttons on the `gui_frames` dashboard.
pub const BUTTONS: usize = 4;

/// Label grid of the `gui_frames` dashboard.
pub const ROWS: usize = 6;
pub const COLS: usize = 4;

/// SplitMix64: tiny, fast and fully determined by its seed.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// A lowercase alphanumeric word of `len` characters: no Tcl
    /// metacharacters, so it survives quoting untouched.
    pub fn word(&mut self, len: usize) -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
        (0..len)
            .map(|_| ALPHABET[self.range(0, ALPHABET.len() - 1)] as char)
            .collect()
    }
}

/// The four client-visible workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LineRtt,
    BurstFlush,
    GuiFrames,
    SessionCycle,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "line_rtt" => Workload::LineRtt,
            "burst_flush" => Workload::BurstFlush,
            "gui_frames" => Workload::GuiFrames,
            "session_cycle" => Workload::SessionCycle,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::LineRtt => "line_rtt",
            Workload::BurstFlush => "burst_flush",
            Workload::GuiFrames => "gui_frames",
            Workload::SessionCycle => "session_cycle",
        }
    }
}

/// `line_rtt`: one `%set`/`%echo` trip per op with a seeded payload.
pub struct LineGen(Rng);

impl LineGen {
    pub fn new(seed: u64) -> LineGen {
        LineGen(Rng::new(seed ^ 0x6c69_6e65))
    }

    /// The two lines of op `id`; its reply is `<id> <payload>`.
    pub fn op(&mut self, id: u64) -> String {
        let slot = id % WINDOW as u64;
        let len = self.0.range(1, 96);
        let payload = self.0.word(len);
        format!("%set v{slot} {payload}\n%echo {id} [set v{slot}]\n")
    }
}

/// `burst_flush`: bursts of Tcl lines spanning one to four quanta,
/// each ending in one `%echo` whose text depends on every line before.
pub struct BurstGen(Rng);

const BURST_COUNTERS: usize = 8;
const BURST_STRINGS: usize = 16;

impl BurstGen {
    pub fn new(seed: u64) -> BurstGen {
        BurstGen(Rng::new(seed ^ 0x6275_7273))
    }

    /// State the bursts build on.
    pub fn setup(&mut self) -> String {
        let mut s = String::new();
        for j in 0..BURST_COUNTERS {
            s.push_str(&format!("%set c{j} 0\n"));
        }
        for j in 0..BURST_STRINGS {
            let len = self.0.range(1, 24);
            s.push_str(&format!("%set s{j} {}\n", self.0.word(len)));
        }
        s.push_str("%set t 0\n%echo ready\n");
        s
    }

    /// Op `id`: the burst text and its line count (the echo included).
    pub fn op(&mut self, id: u64) -> (String, usize) {
        let r = &mut self.0;
        let n = r.range(QUANTUM, 4 * QUANTUM);
        let mut s = String::with_capacity(n * 24);
        for _ in 0..n - 1 {
            let j = r.range(0, BURST_STRINGS - 1);
            let c = j % BURST_COUNTERS;
            match r.range(0, 4) {
                0 => {
                    let len = r.range(1, 24);
                    s.push_str(&format!("%set s{j} {}\n", r.word(len)));
                }
                1 => s.push_str(&format!("%incr c{c}\n")),
                2 => s.push_str(&format!(
                    "%set t [expr {{$c{c} * {} + {}}}]\n",
                    r.range(1, 9),
                    r.range(0, 99)
                )),
                3 => s.push_str(&format!("%set u [string toupper $s{j}]\n")),
                _ => s.push_str(&format!(
                    "%set q [lindex {{alpha beta gamma delta}} {}]\n",
                    r.range(0, 3)
                )),
            }
        }
        let j = r.range(0, BURST_STRINGS - 1);
        s.push_str(&format!(
            "%echo {id} $c0 $c1 $c2 $c3 $c4 $c5 $c6 $c7 $t [string length $s{j}]\n"
        ));
        (s, n)
    }
}

/// One `gui_frames` op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuiOp {
    /// A `%sV` of one dashboard label to text that always changes.
    Update(String),
    /// A remote press and release on command button `n`.
    Click(usize),
}

/// `gui_frames`: label updates and remote clicks on a realized
/// dashboard of `ROWS x COLS` labels and `BUTTONS` command buttons.
pub struct GuiGen(Rng);

impl GuiGen {
    pub fn new(seed: u64) -> GuiGen {
        GuiGen(Rng::new(seed ^ 0x6775_6966))
    }

    /// The dashboard, realized and, if `display`, attached to the
    /// remote display. Geometry queries for the buttons ride in the
    /// `ready` echo.
    pub fn setup(&mut self, display: bool) -> String {
        let mut s = String::from("%form grid topLevel\n");
        for r in 0..ROWS {
            for c in 0..COLS {
                let len = self.0.range(2, 12);
                s.push_str(&format!(
                    "%label r{r}c{c} grid label {{{}}} width 120 height 24",
                    self.0.word(len)
                ));
                if c > 0 {
                    s.push_str(&format!(" fromHoriz r{r}c{}", c - 1));
                }
                if r > 0 {
                    s.push_str(&format!(" fromVert r{}c{c}", r - 1));
                }
                s.push('\n');
            }
        }
        for b in 0..BUTTONS {
            s.push_str(&format!(
                "%command b{b} grid label {{button {b}}} callback {{onclick {b}}} fromVert r{}c0",
                ROWS - 1
            ));
            if b > 0 {
                s.push_str(&format!(" fromHoriz b{}", b - 1));
            }
            s.push('\n');
        }
        s.push_str("%label status grid label {clicks 0} width 200 fromVert b0\n");
        s.push_str(
            "%proc onclick {b} {global clicks; incr clicks; \
             sV status label \"clicks $clicks\"; echo click $b $clicks}\n",
        );
        s.push_str("%set clicks 0\n%realize\n");
        if display {
            s.push_str("%display attach\n");
        }
        s.push_str("%echo ready");
        for b in 0..BUTTONS {
            s.push_str(&format!(
                " [gV b{b} x] [gV b{b} y] [gV b{b} width] [gV b{b} height]"
            ));
        }
        s.push('\n');
        s
    }

    pub fn op(&mut self, id: u64) -> GuiOp {
        let r = &mut self.0;
        if r.range(0, 3) == 0 {
            GuiOp::Click(r.range(0, BUTTONS - 1))
        } else {
            let (row, col, len) = (r.range(0, ROWS - 1), r.range(0, COLS - 1), r.range(1, 16));
            GuiOp::Update(format!("%sV r{row}c{col} label {{{id} {}}}\n", r.word(len)))
        }
    }
}

/// One `session_cycle` op: the UI and state to build, park and
/// restore, and what the restored session must echo back.
pub struct CycleOp {
    /// Widget and Tcl-state lines, ending in `%echo built <id>`.
    pub build: String,
    /// The post-restore probe line and its expected reply.
    pub probe: String,
    pub expect: String,
}

/// `session_cycle`: a fresh session per op with a seeded UI of fewer
/// lines than one quantum.
pub struct CycleGen(Rng);

impl CycleGen {
    pub fn new(seed: u64) -> CycleGen {
        CycleGen(Rng::new(seed ^ 0x6379_636c))
    }

    pub fn op(&mut self, id: u64) -> CycleOp {
        let r = &mut self.0;
        let widgets = r.range(3, 12);
        let mut build = String::from("%form f topLevel\n");
        let mut last_label = String::new();
        for w in 0..widgets {
            let len = r.range(2, 10);
            last_label = r.word(len);
            let class = if r.range(0, 2) == 0 {
                "command"
            } else {
                "label"
            };
            build.push_str(&format!("%{class} w{w} f label {{{last_label}}}"));
            if w > 0 {
                build.push_str(&format!(" fromVert w{}", w - 1));
            }
            build.push('\n');
        }
        let len = r.range(4, 32);
        let state = r.word(len);
        let n = r.range(1, 1_000_000);
        build.push_str(&format!(
            "%set state {state}\n%set n {n}\n%proc twice {{x}} {{expr {{$x * 2}}}}\n\
             %realize\n%echo built {id}\n"
        ));
        let last = widgets - 1;
        CycleOp {
            build,
            probe: format!("%echo state {id} [set state] [twice $n] [gV w{last} label]\n"),
            expect: format!("state {id} {state} {} {last_label}", 2 * n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytes the first `ops` ops of a workload put on the wire.
    fn stream(w: Workload, seed: u64, ops: u64) -> String {
        let mut out = String::new();
        match w {
            Workload::LineRtt => {
                let mut g = LineGen::new(seed);
                (0..ops).for_each(|i| out.push_str(&g.op(i)));
            }
            Workload::BurstFlush => {
                let mut g = BurstGen::new(seed);
                out.push_str(&g.setup());
                (0..ops).for_each(|i| out.push_str(&g.op(i).0));
            }
            Workload::GuiFrames => {
                let mut g = GuiGen::new(seed);
                out.push_str(&g.setup(true));
                (0..ops).for_each(|i| out.push_str(&format!("{:?}", g.op(i))));
            }
            Workload::SessionCycle => {
                let mut g = CycleGen::new(seed);
                for i in 0..ops {
                    let op = g.op(i);
                    out.push_str(&op.build);
                    out.push_str(&op.probe);
                }
            }
        }
        out
    }

    const ALL: [Workload; 4] = [
        Workload::LineRtt,
        Workload::BurstFlush,
        Workload::GuiFrames,
        Workload::SessionCycle,
    ];

    #[test]
    fn same_seed_same_byte_stream() {
        for w in ALL {
            assert_eq!(stream(w, 7, 200), stream(w, 7, 200), "{}", w.name());
            assert_ne!(stream(w, 7, 200), stream(w, 8, 200), "{}", w.name());
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn shapes_respect_the_quantum() {
        let mut b = BurstGen::new(3);
        for i in 0..500 {
            let (text, n) = b.op(i);
            assert_eq!(text.lines().count(), n);
            assert!((QUANTUM..=4 * QUANTUM).contains(&n), "{n}");
            assert!(text
                .lines()
                .last()
                .unwrap()
                .starts_with(&format!("%echo {i} ")));
        }
        let mut c = CycleGen::new(3);
        for i in 0..500 {
            let op = c.op(i);
            let lines = op.build.lines().count();
            assert!(lines < QUANTUM, "{lines}");
        }
        let mut l = LineGen::new(3);
        assert_eq!(l.op(0).lines().count() * WINDOW, QUANTUM / 2);
        let mut g = GuiGen::new(3);
        let clicks = (0..1000)
            .filter(|&i| matches!(g.op(i), GuiOp::Click(_)))
            .count();
        assert!((150..350).contains(&clicks), "{clicks}");
    }
}
