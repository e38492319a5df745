package policy

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rs"
	"repro/internal/runio"
	"repro/internal/stream"
)

// Generator is the per-run interface of every run generator New builds:
// NextRun writes exactly one run through the configured emitter (ok=false
// at exhaustion), and Carry surrenders every element still buffered —
// heaps, FIFOs, read-ahead — so a successor generator can take over at a
// run boundary without losing data.
type Generator[T any] interface {
	NextRun() (run runio.Run, ok bool, err error)
	Carry() []T
}

// Config parameterises policy-driven run generation.
type Config struct {
	// Memory is the budget in elements shared by every generator.
	Memory int
	// TWRS carries the 2WRS knobs used whenever the 2wrs generator runs;
	// the zero value selects the paper's §5.3 recommendation.
	TWRS core.Config
	// ProbeRecords bounds the Auto policy's probe prefix (0: Memory).
	ProbeRecords int
	// Window bounds Auto's rolling order-statistics ring (0: Memory,
	// clamped to [256, 8192]). The ring must be able to span the input's
	// structure — a window much smaller than the memory budget can mistake
	// one ascending tooth of a descending staircase for a sorted stream.
	Window int
	// Span, when non-nil, is the enclosing trace span: generation records
	// one child span per run and one instant event per policy switch
	// under it. Nil disables tracing at zero cost.
	Span *obs.Span
}

func (c Config) probeRecords() int {
	if c.ProbeRecords > 0 {
		return c.ProbeRecords
	}
	return c.Memory
}

func (c Config) window() int {
	if c.Window > 0 {
		return c.Window
	}
	w := c.Memory
	if w < 256 {
		w = 256
	}
	if w > 8192 {
		w = 8192
	}
	return w
}

func (c Config) twrs() core.Config {
	t := c.TWRS
	if t == (core.Config{}) {
		t = core.Recommended(c.Memory)
	}
	t.Memory = c.Memory
	return t
}

// New constructs the run generator for kind over src, writing runs
// through em. It is the one place a policy kind becomes a generator: the
// driver's generation loop calls it once per sort, or once per run
// boundary when durable mode restarts the generator from its carried
// state. down starts the Alternating policy on a descending run (a
// restarted alternating generator alternates by run parity); the other
// kinds ignore it. key optionally projects elements onto the real line for
// the 2WRS numeric heuristics; nil selects the comparator-only fallbacks.
// Auto probes a prefix of src here and returns a generator that also
// implements Adaptive.
func New[T any](kind Kind, down bool, src stream.Reader[T], em *runio.Emitter[T], cfg Config, key func(T) float64) (Generator[T], error) {
	if cfg.Memory <= 0 {
		return nil, fmt.Errorf("policy: memory must be positive, got %d", cfg.Memory)
	}
	switch kind {
	case TwoWayRS:
		return core.NewStepper(src, em, cfg.twrs(), key)
	case RS:
		return rs.NewStepper(src, em, cfg.Memory)
	case LSS:
		return rs.NewLSSStepper(src, em, cfg.Memory)
	case Alternating:
		return rs.NewAltStepper(src, em, cfg.Memory, down)
	case Quick:
		return rs.NewQuickStepper(src, em, cfg.Memory)
	case Auto:
		return newAuto(src, em, cfg, key)
	default:
		return nil, fmt.Errorf("policy: unknown policy %v (valid policies: %v)", kind, Names())
	}
}

// Adaptive is implemented by the Auto generator, whose runs come from a
// concrete generator it may replace at any run boundary.
type Adaptive interface {
	// Kind names the concrete policy that makes the next run.
	Kind() Kind
	// Switches counts the mid-stream generator changes so far.
	Switches() int
}

// shortRunSlack is how far beyond the memory budget a run may stretch and
// still count as "degenerate" for Auto's feedback rule.
func shortRunSlack(memory int) int64 { return int64(memory) + int64(memory)/8 }

// auto is the adaptive generator. It probes a memory-sized prefix, picks a
// generator, and re-decides at every run boundary from a rolling window of
// recent input: a decisive regime change drains the current generator's
// buffered state into the successor (Generator.Carry) so the switch is
// exact — no element is lost or reordered across it.
//
// Two guards keep it honest. Hysteresis: a switch needs a decisive rule
// (choose's confident result) and at least one window of fresh input since
// the last switch. Oscillation: if a decisive rule wants a policy that was
// already abandoned, the regime is alternating faster than the window can
// see, so the engine locks onto 2WRS — the one generator no direction
// degenerates — for the rest of the stream. A separate feedback rule drops
// to Quick when the last few runs came out at bare memory size with no
// directional structure: the heap is buying nothing, so stop paying for it.
type auto[T any] struct {
	em  *runio.Emitter[T]
	cfg Config
	key func(T) float64
	ob  *observer[T]
	in  *stream.Pushback[T] // the probe prefix and switch carries ahead of ob

	gen  Generator[T] // nil until the next run needs it
	kind Kind
	down bool
	// nextEval throttles the rolling measurement: re-deciding costs a ring
	// copy plus the inversion subsample, so it runs at most once per window
	// of fresh input — which is also the switching hysteresis.
	nextEval  int64
	shortRuns int
	locked    bool
	visited   map[Kind]bool
	switches  int
}

func newAuto[T any](src stream.Reader[T], em *runio.Emitter[T], cfg Config, key func(T) float64) (*auto[T], error) {
	ob := newObserver(src, em.Less, cfg.window())
	prefix, err := readPrefix[T](ob, cfg.probeRecords())
	if err != nil {
		return nil, err
	}
	kind, down, _ := choose(Measure(prefix, em.Less))
	return &auto[T]{
		em: em, cfg: cfg, key: key, ob: ob, in: stream.NewPushback(prefix, ob),
		kind: kind, down: down,
		nextEval: ob.count + int64(len(ob.ring)),
		visited:  map[Kind]bool{kind: true},
	}, nil
}

// Kind names the concrete policy that makes the next run.
func (a *auto[T]) Kind() Kind { return a.kind }

// Switches counts the mid-stream generator changes so far.
func (a *auto[T]) Switches() int { return a.switches }

// Carry surrenders the current generator's state and any input queued
// ahead of the source.
func (a *auto[T]) Carry() []T {
	var c []T
	if a.gen != nil {
		c = a.gen.Carry()
	}
	return append(c, a.in.Unread()...)
}

// NextRun writes one run through the current generator, then decides
// which generator makes the next one.
func (a *auto[T]) NextRun() (runio.Run, bool, error) {
	if a.gen == nil {
		g, err := New(a.kind, a.down, a.in, a.em, a.cfg, a.key)
		if err != nil {
			return runio.Run{}, false, err
		}
		a.gen = g
	}
	run, ok, err := a.gen.NextRun()
	if err == nil && ok {
		a.adapt(run.Records)
	}
	return run, ok, err
}

// adapt applies the switching rules after a run of n records.
func (a *auto[T]) adapt(n int64) {
	if n <= shortRunSlack(a.cfg.Memory) {
		a.shortRuns++
	} else {
		a.shortRuns = 0
	}
	if a.locked || a.ob.count < a.nextEval {
		return
	}
	a.nextEval = a.ob.count + int64(len(a.ob.ring))
	want, wantDown, confident := chooseRolling(a.ob.stats(), a.kind, a.shortRuns)
	if !confident || want == a.kind {
		return
	}
	if a.visited[want] {
		// The regime oscillates faster than the window resolves: settle
		// on the generalist for good.
		want, wantDown, a.locked = TwoWayRS, false, true
		if want == a.kind {
			return
		}
	}
	a.visited[want] = true
	a.cfg.Span.Event("policy_switch",
		obs.Str("from", a.kind.String()), obs.Str("to", want.String()),
		obs.Int("record", a.ob.count))
	a.kind, a.down = want, wantDown
	a.in.Push(a.gen.Carry())
	a.gen = nil
	a.shortRuns = 0
	a.switches++
}

// chooseRolling applies the probe's decision rules to the rolling window,
// plus the two feedback rules that only make sense mid-stream.
func chooseRolling(st Stats, cur Kind, shortRuns int) (kind Kind, down, confident bool) {
	kind, down, confident = choose(st)
	if confident {
		return kind, down, true
	}
	// Random-looking regime while stuck in Quick: replacement selection
	// would double the run length, so escape.
	if cur == Quick && st.Zigzag >= 0.5 && st.InvRatio >= 0.25 && st.InvRatio <= 0.75 {
		return TwoWayRS, false, true
	}
	// No directional structure and the current generator has produced
	// several bare memory-sized runs in a row: drop to quicksort batches,
	// which emit the same runs without the per-element heap walk.
	if cur != Quick && shortRuns >= 4 {
		return Quick, false, true
	}
	return cur, down, false
}

// readPrefix reads up to n elements from r.
func readPrefix[T any](r stream.BatchReader[T], n int) ([]T, error) {
	buf := make([]T, n)
	fill := 0
	for fill < n {
		k, err := r.ReadBatch(buf[fill:])
		fill += k
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if k == 0 {
			break
		}
	}
	return buf[:fill], nil
}

// observer wraps the raw source, counting every element handed out and
// retaining the most recent `window` of them in a ring for rolling order
// statistics. Elements re-fed through the pushback after a policy switch do
// not pass through it again, so the count is exact and the window always
// reflects fresh input.
type observer[T any] struct {
	br    stream.BatchReader[T]
	less  func(a, b T) bool
	count int64
	ring  []T
	rn    int // elements stored (≤ len(ring))
	rpos  int // next write position
}

func newObserver[T any](src stream.Reader[T], less func(a, b T) bool, window int) *observer[T] {
	return &observer[T]{br: stream.AsBatchReader(src), less: less, ring: make([]T, window)}
}

// ReadBatch forwards to the source and notes what passed through.
func (o *observer[T]) ReadBatch(dst []T) (int, error) {
	n, err := o.br.ReadBatch(dst)
	o.count += int64(n)
	for _, v := range dst[:n] {
		o.ring[o.rpos] = v
		o.rpos = (o.rpos + 1) % len(o.ring)
		if o.rn < len(o.ring) {
			o.rn++
		}
	}
	return n, err
}

// stats measures the ring's contents in arrival order.
func (o *observer[T]) stats() Stats {
	vals := make([]T, 0, o.rn)
	if o.rn == len(o.ring) {
		vals = append(vals, o.ring[o.rpos:]...)
		vals = append(vals, o.ring[:o.rpos]...)
	} else {
		vals = append(vals, o.ring[:o.rn]...)
	}
	return Measure(vals, o.less)
}
