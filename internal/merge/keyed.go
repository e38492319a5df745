package merge

import "repro/internal/codec"

// Keyed match strategies. When the emitter carries a KeyCodec the loser
// tree stops calling the comparator on every match and compares normalized
// key bytes instead, in one of two forms (DESIGN.md §12):
//
//   - prefixKeys, for complete keys of at most 8 bytes: each source caches
//     its head's key as one uint64 (codec.Prefix). Prefix equality is key
//     equality, so every match is exactly one integer compare — the merge
//     is comparator-free.
//
//   - ovcKeys, for variable-width or longer keys: offset-value coding.
//     Each source carries its head's full key bytes (re-derived from the
//     decoded element on load — the cheap side of the spill boundary:
//     keys need not be stored in the run files) plus an OVC code: the
//     offset of the first byte where the key departs from a reference key
//     it is known to be ≥, and the value of that byte. Two codes relative
//     to the same reference decide a match with one integer compare; only
//     equal codes (keys that agree through the decisive byte) scan further,
//     and that scan yields the loser's refreshed code for free.
//
// Every decision either strategy makes is pointwise equal to the comparator
// strategy's less(a, b) — strictly ordered pairs by the key-order contract,
// ties by both returning false — so the merged output is byte-identical to
// the comparator path's at every setting.

// prefixKeys is the strategy for keys that fit the cached uint64 prefix
// entirely (FixedKeySize in 1..8).
type prefixKeys[T any] struct {
	pfx func(T) uint64
	// key[i] is source i's head key; exhausted sources hold the sentinel
	// ^0 so the replay loop's compare needs no exhaustion check on the
	// (overwhelmingly common) unequal-key path.
	key []uint64
	// done marks exhausted sources; they order after everything.
	done []bool
}

func byPrefix[T any](pfx func(T) uint64, k int) prefixKeys[T] {
	return prefixKeys[T]{pfx: pfx, key: make([]uint64, k), done: make([]bool, k)}
}

func (p *prefixKeys[T]) load(i int, v T) { p.key[i] = p.pfx(v) }

func (p *prefixKeys[T]) exhaust(i int) {
	p.done[i] = true
	p.key[i] = ^uint64(0)
}

// less is one integer compare on the unequal path. Exhaustion is resolved
// only on key ties (an exhausted source holds the sentinel ^0, so it can
// only tie with another exhausted source or a live maximal key): the
// decisions are exactly the comparator's — exhausted sources order last,
// live ties order false both ways.
func (p *prefixKeys[T]) less(a, b int) bool {
	ka, kb := p.key[a], p.key[b]
	if ka != kb {
		return ka < kb
	}
	if p.done[a] {
		return false
	}
	return p.done[b]
}

// ovcCap bounds the offsets offset-value codes can express. Keys whose
// decisive byte lies beyond it (a multi-megabyte shared prefix) simply
// fall back to full key compares via an invalid reference.
const ovcCap = 1 << 22

// ovcByteAt is the key byte at off shifted into code space: 0 encodes
// end-of-key (a virtual terminator below every real byte, so a key sorts
// before every proper extension of itself), and a real byte b encodes as
// b+1.
func ovcByteAt(key []byte, off int) uint64 {
	if off >= len(key) {
		return 0
	}
	return uint64(key[off]) + 1
}

// ovcCode packs (offset of first difference from the reference, value at
// that offset) so that, for two keys ≥ the same reference, the larger code
// belongs to the larger key: a LATER offset means a LONGER shared prefix
// with the reference, hence a smaller key, so the offset enters the code
// complemented.
func ovcCode(off int, val uint64) uint64 {
	return uint64(ovcCap-off)<<9 | val
}

// ovcKeys is the offset-value-coding strategy for variable-width or
// longer-than-prefix keys.
type ovcKeys[T any] struct {
	kc codec.KeyCodec[T]
	// Per-source head state: its full normalized key, and a spare buffer
	// so load can re-derive the new key while the previous one (the code's
	// reference) is still readable.
	key   [][]byte
	spare [][]byte
	done  []bool
	// OVC state. code[i] is source i's head code relative to the element
	// whose id is ref[i]; ids are handed out per loaded element, and 0
	// marks "no valid code" (full compare required). Codes are only
	// compared when their refs match — the guard that keeps interleaved
	// ascents correct.
	code []uint64
	ref  []uint64
	id   []uint64
	next uint64
	// fastPath / fullCmp count decided matches for tests and benchmarks.
	fastPath int64
	fullCmp  int64
}

func byOVC[T any](kc codec.KeyCodec[T], k int) ovcKeys[T] {
	return ovcKeys[T]{
		kc:    kc,
		key:   make([][]byte, k),
		spare: make([][]byte, k),
		done:  make([]bool, k),
		code:  make([]uint64, k),
		ref:   make([]uint64, k),
		id:    make([]uint64, k),
	}
}

// load re-derives the new head's key bytes — the spill boundary ships only
// elements; keys are recomputed here, which is one AppendKey per record.
// The new head's code is seeded relative to the element it replaces: a run
// is sorted, so the predecessor (just output) is a valid reference.
func (o *ovcKeys[T]) load(i int, v T) {
	prevKey, prevID := o.key[i], o.id[i]
	newKey := o.kc.AppendKey(o.spare[i][:0], v)
	o.spare[i] = prevKey
	o.key[i] = newKey
	o.next++
	o.id[i] = o.next
	if prevID != 0 {
		off := codec.FirstDiff(newKey, prevKey)
		if off < ovcCap {
			o.code[i] = ovcCode(off, ovcByteAt(newKey, off))
			o.ref[i] = prevID
			return
		}
	}
	o.ref[i] = 0
}

func (o *ovcKeys[T]) exhaust(i int) { o.done[i] = true }

// less decides the match and refreshes the loser's code relative to the
// winner, which keeps codes on a replay path comparable in one integer
// operation.
func (o *ovcKeys[T]) less(a, b int) bool {
	if o.done[a] {
		return false
	}
	if o.done[b] {
		return true
	}
	if o.ref[a] != 0 && o.ref[a] == o.ref[b] {
		ca, cb := o.code[a], o.code[b]
		if ca != cb {
			// Both codes are relative to the same reference r with r ≤ both
			// keys, so the code order is the key order. The loser's code is
			// also its code relative to the winner's key (the winner agrees
			// with r through the loser's decisive byte), so re-tagging the
			// loser against the winner costs nothing.
			o.fastPath++
			if ca < cb {
				o.ref[b] = o.id[a]
				return true
			}
			o.ref[a] = o.id[b]
			return false
		}
		// Equal codes: both keys depart from the reference at the same
		// offset with the same byte. If that byte is the terminator the
		// keys are equal — a tie, and the comparator would return false
		// here too. Otherwise scan on from the next byte; the scan's result
		// is exactly the loser's new code relative to the winner.
		off := ovcCap - int(ca>>9)
		if ca&0x1ff == 0 {
			o.ref[a] = o.id[b]
			return false
		}
		return o.settle(a, b, off+1)
	}
	// References differ (or are invalid): one full key compare, which also
	// realigns the loser's code to the winner for the matches above.
	o.fullCmp++
	return o.settle(a, b, 0)
}

// settle decides a match by scanning the two keys from `from` (they are
// known equal before it), tags the loser with its code relative to the
// winner, and reports whether a strictly precedes b.
func (o *ovcKeys[T]) settle(a, b int, from int) bool {
	ka, kb := o.key[a], o.key[b]
	var off int
	if from >= len(ka) || from >= len(kb) {
		off = len(ka)
		if len(kb) < off {
			off = len(kb)
		}
	} else {
		off = from + codec.FirstDiff(ka[from:], kb[from:])
	}
	va, vb := ovcByteAt(ka, off), ovcByteAt(kb, off)
	switch {
	case va < vb:
		o.tag(b, a, off, vb)
		return true
	case vb < va:
		o.tag(a, b, off, va)
		return false
	default:
		// Keys equal: a tie. Tag a against b so future matches on this
		// path stay on the fast path.
		o.tag(a, b, off, va)
		return false
	}
}

// tag records loser's code relative to winner: they first differ at off,
// where the loser's byte is val.
func (o *ovcKeys[T]) tag(loser, winner, off int, val uint64) {
	if off < ovcCap {
		o.code[loser] = ovcCode(off, val)
		o.ref[loser] = o.id[winner]
	} else {
		o.ref[loser] = 0
	}
}
