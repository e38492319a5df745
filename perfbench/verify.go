package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"repro"
)

// digest summarises one encoded element stream: its length, whether it is
// ordered, an order-insensitive multiset checksum of its elements and the
// FNV-64a of its bytes.
type digest struct {
	count      int64
	disorderAt int64 // index of the first element smaller than its predecessor; -1 when ordered
	multiset   uint64
	fnv        uint64
}

// mix64 is the splitmix64 finaliser; summing mixed per-element hashes gives
// a checksum that ignores order but catches a dropped, added or altered
// element.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// elementHash is FNV-64a over one element's encoding, mixed.
func elementHash(enc []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range enc {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return mix64(h)
}

// scanFile digests a codec-encoded file; capture lists element indices whose
// values are returned alongside (used to learn shard boundaries).
func scanFile[T any](path string, c repro.Codec[T], less func(a, b T) bool, capture []int64) (digest, []T, error) {
	f, err := os.Open(path)
	if err != nil {
		return digest{}, nil, err
	}
	defer f.Close()
	d := digest{disorderAt: -1}
	whole := fnv.New64a()
	var (
		buf      = make([]byte, 1<<20)
		lo, hi   int
		eof      bool
		prev     T
		captured []T
	)
	for {
		v, n, derr := c.Decode(buf[lo:hi])
		if derr == nil {
			enc := buf[lo : lo+n]
			d.multiset += elementHash(enc)
			if d.count > 0 && d.disorderAt < 0 && less(v, prev) {
				d.disorderAt = d.count
			}
			if len(captured) < len(capture) && capture[len(captured)] == d.count {
				captured = append(captured, v)
			}
			prev = v
			d.count++
			lo += n
			continue
		}
		if !errors.Is(derr, repro.ErrShortCodec) {
			return d, nil, derr
		}
		if eof {
			if lo != hi {
				return d, nil, fmt.Errorf("%s: truncated element at byte offset %d of the final window", path, lo)
			}
			break
		}
		hi = copy(buf, buf[lo:hi])
		lo = 0
		m, rerr := io.ReadFull(f, buf[hi:])
		whole.Write(buf[hi : hi+m])
		hi += m
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			eof = true
		} else if rerr != nil {
			return d, nil, rerr
		}
	}
	d.fnv = whole.Sum64()
	return d, captured, nil
}

// check compares a sorted output's digest with its input's: same element
// count, non-decreasing order, same multiset.
func (out digest) check(in digest) error {
	switch {
	case out.count != in.count:
		return fmt.Errorf("output holds %d elements, input %d", out.count, in.count)
	case out.disorderAt >= 0:
		return fmt.Errorf("output element %d is smaller than its predecessor", out.disorderAt)
	case out.multiset != in.multiset:
		return fmt.Errorf("output multiset checksum %016x differs from the input's %016x", out.multiset, in.multiset)
	}
	return nil
}
