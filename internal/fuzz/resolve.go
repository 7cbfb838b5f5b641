package fuzz

import (
	"fmt"

	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/resolve"
)

// resolveMissCap bounds how many candidate-set misses one run records;
// a single unsound rule usually repeats the same miss every round.
const resolveMissCap = 8

// resolveMiss is one dynamically taken indirect target that fell outside
// the candidate set of a site the resolver claimed was exhaustive.
type resolveMiss struct {
	Site   uint64 `json:"site"`
	Target uint64 `json:"target"`
}

// DiffResolve is oracle axis D, the resolver soundness oracle: run the
// static resolver over the image, take every site it marks Exhaustive,
// then execute the ORIGINAL image with an indirect-branch recorder and
// assert that each dynamically taken target at such a site is in the
// site's candidate set. A miss means the resolver would have patched the
// site statically while a real execution escapes the patch — the exact
// bug class that turns a "transparent" rewrite into silent corruption.
func (s *Spec) DiffResolve() (*Divergence, error) {
	img, budget, err := s.Assemble()
	if err != nil {
		return nil, fmt.Errorf("fuzz: assemble: %w", err)
	}
	return s.diffResolveWith(img, budget, resolve.Resolve(img))
}

// diffResolveWith checks one TargetSet's Exhaustive claims against a live
// run. Split out so tests can hand in a deliberately tampered TargetSet.
func (s *Spec) diffResolveWith(img *obj.Image, budget uint64, ts *resolve.TargetSet) (*Divergence, error) {
	exhaustive := make(map[uint64]map[uint64]bool)
	for pc, site := range ts.Sites {
		if !site.Exhaustive {
			continue
		}
		set := make(map[uint64]bool, len(site.Targets))
		for _, t := range site.Targets {
			set[t.Addr] = true
		}
		exhaustive[pc] = set
	}

	v, err := kernel.VariantFromImage(img)
	if err != nil {
		return nil, err
	}
	p, err := newProc(v, img.ISA, false)
	if err != nil {
		return nil, err
	}
	// The recorder must go in after NewProcess: loading a variant installs
	// the view's own hook (nil for a plain image), overwriting any earlier
	// assignment. The hook fires on every jalr including returns; the site
	// filter keeps only the pcs under an exhaustiveness claim.
	var misses []resolveMiss
	p.Hooks().Indirect = func(pc, target uint64) (uint64, uint64) {
		if set, ok := exhaustive[pc]; ok && !set[target] {
			if len(misses) < resolveMissCap {
				misses = append(misses, resolveMiss{Site: pc, Target: target})
			}
		}
		return target, 0
	}
	rref := runReport("original+recorder", p, img, budget)
	if rref.SimError != "" || rref.Hang {
		return &Divergence{
			Axis: AxisResolve, Seed: s.Seed, Spec: s,
			Detail: "reference execution did not exit cleanly", A: rref,
		}, nil
	}
	if len(misses) == 0 {
		return nil, nil
	}
	m := misses[0]
	site := ts.Sites[m.Site]
	return &Divergence{
		Axis: AxisResolve, Seed: s.Seed, Spec: s,
		Detail: fmt.Sprintf(
			"site %#x taken target %#x outside its exhaustive candidate set (%d candidates, %d misses)",
			m.Site, m.Target, len(site.Targets), len(misses)),
		A: rref,
	}, nil
}
