// Package merge implements the merge phase of external mergesort
// (§2.1.2 of the thesis): a k-way merge built on a loser tree, a multi-pass
// driver with configurable fan-in, and polyphase merge over a tape
// abstraction (Table 2.1). Everything is generic over the element type. The
// loser tree orders sources by the emitter's comparator, or — when the
// emitter carries a KeyCodec — by normalized key bytes (keyed.go), with
// identical output either way.
package merge

import (
	"io"

	"repro/internal/stream"
)

// Source is a sorted element stream being merged.
type Source[T any] interface {
	stream.Reader[T]
	Close() error
}

// leafBatch is the element count of the per-input refill buffers both
// mergers keep: each leaf advance is an array index, and the underlying
// run-reader stack is entered once per leafBatch elements.
const leafBatch = 256

// leaves holds the per-source refill buffers shared by the loser tree and
// HeapMerger.
type leaves[T any] struct {
	srcs []Source[T]
	brs  []stream.BatchReader[T]
	bufs [][]T
	pos  []int
	cnt  []int
}

func newLeaves[T any](srcs []Source[T]) *leaves[T] {
	k := len(srcs)
	l := &leaves[T]{
		srcs: srcs,
		brs:  make([]stream.BatchReader[T], k),
		bufs: make([][]T, k),
		pos:  make([]int, k),
		cnt:  make([]int, k),
	}
	for i, s := range srcs {
		l.brs[i] = stream.AsBatchReader[T](s)
		l.bufs[i] = make([]T, leafBatch)
	}
	return l
}

// next pulls the next element of source i from its batch buffer, refilling
// from the source once per leafBatch elements. ok is false at end of the
// source's stream.
func (l *leaves[T]) next(i int) (v T, ok bool, err error) {
	if l.pos[i] < l.cnt[i] {
		v = l.bufs[i][l.pos[i]]
		l.pos[i]++
		return v, true, nil
	}
	n, err := l.brs[i].ReadBatch(l.bufs[i])
	if err == io.EOF || (err == nil && n == 0) {
		var zero T
		return zero, false, nil
	}
	if err != nil {
		var zero T
		return zero, false, err
	}
	l.pos[i], l.cnt[i] = 1, n
	return l.bufs[i][0], true, nil
}

// closeAll closes every source, returning the first error.
func (l *leaves[T]) closeAll() error {
	var first error
	for _, s := range l.srcs {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// keyer is a loser tree's match strategy: the key state it keeps for each
// source's head and the match decision over it. Strategies differ only in
// how they order heads — the comparator (lessKeys), a cached 8-byte prefix
// (prefixKeys) or offset-value codes (ovcKeys) — and every strategy makes
// the same decision for every pair of heads, so the merged output does not
// depend on which one runs.
type keyer[T any] interface {
	// load records v as source i's new head.
	load(i int, v T)
	// exhaust marks source i as run dry.
	exhaust(i int)
	// less reports whether source a's head orders strictly before source
	// b's. An exhausted source orders after every live one, and two
	// exhausted sources or two equal heads order false both ways.
	less(a, b int) bool
}

// loserTree is a tournament tree over k sorted sources. Compared with a
// heap of sources it performs exactly ⌈log2 k⌉ matches per record (the
// winner replays only its own path), which is why database sorters prefer
// it; BenchmarkAblationMergeEngine quantifies the difference. Leaves are
// refilled from per-input batch buffers, so source dispatch is paid once
// per leafBatch elements.
//
// The tree holds its strategy's state inline (keys) and calls it through
// K, the strategy's pointer type.
type loserTree[T any, S any, K interface {
	*S
	keyer[T]
}] struct {
	lv   *leaves[T]
	keys S
	// cur[i] is the head element of source i; live counts the sources not
	// yet exhausted. Exhausted sources lose every match, so the overall
	// winner is exhausted exactly when live is zero.
	cur  []T
	live int
	// tree[j] holds the loser of the match at internal node j; tree[0]
	// holds the overall winner.
	tree   []int
	k      int
	closed bool
	err    error // a source's error; every later read returns it
}

// newLoserTree builds a tree over the given sources ordered by keys,
// priming each source.
func newLoserTree[T any, S any, K interface {
	*S
	keyer[T]
}](srcs []Source[T], keys S) (*loserTree[T, S, K], error) {
	k := len(srcs)
	t := &loserTree[T, S, K]{
		lv:   newLeaves(srcs),
		keys: keys,
		cur:  make([]T, k),
		live: k,
		tree: make([]int, k),
		k:    k,
	}
	for i := range srcs {
		if err := t.advance(i); err != nil {
			t.Close()
			return nil, err
		}
	}
	t.build()
	return t, nil
}

// advance pulls the next element from source i's leaf buffer.
func (t *loserTree[T, S, K]) advance(i int) error {
	v, ok, err := t.lv.next(i)
	switch {
	case err != nil:
		return err
	case !ok:
		K(&t.keys).exhaust(i)
		t.live--
	default:
		t.cur[i] = v
		K(&t.keys).load(i, v)
	}
	return nil
}

// build runs the initial tournament, filling tree with losers and tree[0]
// with the winner.
func (t *loserTree[T, S, K]) build() {
	if t.k == 0 {
		return
	}
	keys := K(&t.keys)
	// Play the tournament bottom-up: winner[j] for internal node j over
	// leaves k..2k-1 (leaf j represents source j-k).
	winner := make([]int, 2*t.k)
	for j := t.k; j < 2*t.k; j++ {
		winner[j] = j - t.k
	}
	for j := t.k - 1; j >= 1; j-- {
		a, b := winner[2*j], winner[2*j+1]
		if keys.less(a, b) {
			winner[j] = a
			t.tree[j] = b
		} else {
			winner[j] = b
			t.tree[j] = a
		}
	}
	t.tree[0] = winner[1]
}

// Read returns the next element in global sorted order, or io.EOF once all
// sources are exhausted.
func (t *loserTree[T, S, K]) Read() (T, error) {
	var one [1]T
	_, err := t.ReadBatch(one[:])
	return one[0], err
}

// ReadBatch fills dst with the next elements in global sorted order per the
// stream.BatchReader contract. When a source fails, the elements already
// taken — the in-flight winner included — are delivered first, and every
// later call returns the error.
func (t *loserTree[T, S, K]) ReadBatch(dst []T) (int, error) {
	if t.closed {
		return 0, stream.ErrClosed
	}
	if t.err != nil {
		return 0, t.err
	}
	keys := K(&t.keys)
	for n := range dst {
		if t.live == 0 {
			if n > 0 {
				return n, nil
			}
			return 0, io.EOF
		}
		w := t.tree[0]
		dst[n] = t.cur[w]
		// advance(w), with the leaf-buffer hit inlined: the strategy's
		// methods are called through the instantiation's dictionary, so
		// this loop avoids every other call it can.
		if lv := t.lv; lv.pos[w] < lv.cnt[w] {
			v := lv.bufs[w][lv.pos[w]]
			lv.pos[w]++
			t.cur[w] = v
			keys.load(w, v)
		} else if err := t.advance(w); err != nil {
			t.err = err
			return n + 1, nil
		}
		// Replay the winner's path to the root: at each internal node the
		// new contender either stays winner or swaps with the stored loser.
		for j := (w + t.k) / 2; j >= 1; j /= 2 {
			if keys.less(t.tree[j], w) {
				t.tree[j], w = w, t.tree[j]
			}
		}
		t.tree[0] = w
	}
	return len(dst), nil
}

// Close closes every source, returning the first error encountered.
func (t *loserTree[T, S, K]) Close() error {
	if t.closed {
		return stream.ErrClosed
	}
	t.closed = true
	return t.lv.closeAll()
}

// lessKeys is the comparator strategy: each head is its own key.
type lessKeys[T any] struct {
	cmp  func(a, b T) bool
	head []T
	done []bool
}

func byLess[T any](less func(a, b T) bool, k int) lessKeys[T] {
	return lessKeys[T]{cmp: less, head: make([]T, k), done: make([]bool, k)}
}

func (c *lessKeys[T]) load(i int, v T) { c.head[i] = v }

func (c *lessKeys[T]) exhaust(i int) { c.done[i] = true }

func (c *lessKeys[T]) less(a, b int) bool {
	if c.done[a] {
		return false
	}
	if c.done[b] {
		return true
	}
	return c.cmp(c.head[a], c.head[b])
}

// HeapMerger is the naive alternative: a binary heap of sources, costing up
// to 2·log2 k comparisons per record. It exists as the ablation baseline
// for the loser tree.
type HeapMerger[T any] struct {
	lv      *leaves[T]
	cmp     func(a, b T) bool
	heap    []int // source indices ordered by head element
	cur     []T
	closed  bool
	err     error // a source's error; every later Read returns it
	pendErr error // error deferred by ReadBatch after a partial batch
}

// NewHeapMerger builds a heap-based merger over the sources.
func NewHeapMerger[T any](srcs []Source[T], less func(a, b T) bool) (*HeapMerger[T], error) {
	m := &HeapMerger[T]{lv: newLeaves(srcs), cmp: less, cur: make([]T, len(srcs))}
	for i := range srcs {
		rec, ok, err := m.lv.next(i)
		if err != nil {
			m.Close()
			return nil, err
		}
		if !ok {
			continue
		}
		m.cur[i] = rec
		m.heap = append(m.heap, i)
		m.up(len(m.heap) - 1)
	}
	return m, nil
}

func (m *HeapMerger[T]) less(i, j int) bool { return m.cmp(m.cur[m.heap[i]], m.cur[m.heap[j]]) }

func (m *HeapMerger[T]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !m.less(i, p) {
			return
		}
		m.heap[i], m.heap[p] = m.heap[p], m.heap[i]
		i = p
	}
}

func (m *HeapMerger[T]) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(m.heap) && m.less(l, best) {
			best = l
		}
		if r < len(m.heap) && m.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		m.heap[i], m.heap[best] = m.heap[best], m.heap[i]
		i = best
	}
}

// Read returns the next element in global sorted order. When a source
// fails, the element already taken is returned first and every later call
// returns the error.
func (m *HeapMerger[T]) Read() (T, error) {
	var zero T
	if m.closed {
		return zero, stream.ErrClosed
	}
	if m.err != nil {
		return zero, m.err
	}
	if len(m.heap) == 0 {
		return zero, io.EOF
	}
	src := m.heap[0]
	rec := m.cur[src]
	next, ok, err := m.lv.next(src)
	switch {
	case err != nil:
		m.err = err
	case !ok:
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
		if len(m.heap) > 0 {
			m.down(0)
		}
	default:
		m.cur[src] = next
		m.down(0)
	}
	return rec, nil
}

// ReadBatch fills dst with the next elements in global sorted order per the
// stream.BatchReader contract.
func (m *HeapMerger[T]) ReadBatch(dst []T) (int, error) {
	if m.closed {
		return 0, stream.ErrClosed
	}
	return stream.ReadBatchElems[T](m, &m.pendErr, dst)
}

// Close closes every source.
func (m *HeapMerger[T]) Close() error {
	if m.closed {
		return stream.ErrClosed
	}
	m.closed = true
	return m.lv.closeAll()
}
