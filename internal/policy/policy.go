// Package policy turns run generation from a single hard-wired algorithm
// into a pluggable subsystem. It names every run generator the library
// implements — the paper's two-way replacement selection, classic
// replacement selection, load-sort-store, alternating up/down runs (Bender
// et al., "Run Generation Revisited") and memory-sized quicksort batches —
// behind one per-run Generator interface, and adds Auto: an adaptive
// policy that probes the order structure of a memory-sized input prefix,
// keeps rolling order statistics while the sort runs, and switches
// generators at run boundaries when the input's regime changes mid-stream.
// New is the one constructor that maps a Kind to its generator.
//
// The driver (internal/extsort) selects a policy through Config.Policy;
// the public API exposes it as repro.WithPolicy, with Auto as the generic
// constructor's default. DESIGN.md §9 documents the probe's statistics,
// the per-policy cost model and when each policy wins.
package policy

import (
	"fmt"
	"strings"
)

// Kind identifies a run-generation policy.
type Kind int

const (
	// None selects no policy: the driver resolves its legacy Algorithm
	// field instead. It is the zero value, so hand-built configurations
	// keep their historical meaning.
	None Kind = iota
	// TwoWayRS is the paper's two-way replacement selection: a double
	// heap releasing an ascending and a descending stream per run. The
	// generalist — no input shape degenerates it to memory-sized runs.
	TwoWayRS
	// RS is classic replacement selection: one min-heap, ascending runs,
	// expected length 2M on random input, a single run on ascending input,
	// exactly M on descending input.
	RS
	// Alternating generates runs of alternating direction (Bender et al.):
	// up-runs as in RS, down-runs through a max-heap stored in the backward
	// format. Whichever way the input drifts, every other run travels with
	// it.
	Alternating
	// Quick generates memory-sized quicksort batches: the cheapest
	// generator per element, with run length pinned to exactly M.
	Quick
	// Auto probes the input and delegates to one of the four policies
	// above, re-deciding at run boundaries as the stream evolves.
	Auto
	// LSS is load-sort-store (§2.1.1), the paper's baseline: fill memory,
	// sort, store. Runs are exactly M long whatever the input. It is
	// selected through the legacy Algorithm alias only, so it is not among
	// Kinds and Parse does not accept it.
	LSS
)

// kindNames maps each policy to its CLI/config name. None is deliberately
// absent: it is not a policy, it is the absence of one.
var kindNames = map[Kind]string{
	TwoWayRS:    "2wrs",
	RS:          "rs",
	Alternating: "alternating",
	Quick:       "quick",
	Auto:        "auto",
	LSS:         "lss",
}

// Kinds lists the selectable policies in presentation order.
var Kinds = []Kind{TwoWayRS, RS, Alternating, Quick, Auto}

// String returns the policy's CLI/config name.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	if k == None {
		return "none"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Names lists the valid policy names in presentation order, for CLI usage
// text and validation errors.
func Names() []string {
	out := make([]string, len(Kinds))
	for i, k := range Kinds {
		out[i] = k.String()
	}
	return out
}

// Parse resolves a policy name as accepted by configs and CLIs ("alt" is
// an accepted abbreviation of "alternating"). Unknown names are rejected
// with an error listing every valid policy — never silently defaulted.
func Parse(s string) (Kind, error) {
	if strings.EqualFold(s, "alt") {
		return Alternating, nil
	}
	for _, k := range Kinds {
		if strings.EqualFold(s, k.String()) {
			return k, nil
		}
	}
	return None, fmt.Errorf("policy: unknown policy %q (valid policies: %s)", s, strings.Join(Names(), ", "))
}
