package main

import (
	"context"
	"encoding/json"
	"fmt"

	"github.com/eurosys26p57/chimera/internal/bench"
	"github.com/eurosys26p57/chimera/internal/cfg"
	"github.com/eurosys26p57/chimera/internal/chbp"
	"github.com/eurosys26p57/chimera/internal/dis"
	"github.com/eurosys26p57/chimera/internal/heterosys"
	"github.com/eurosys26p57/chimera/internal/instrument"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/liveness"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/resolve"
	"github.com/eurosys26p57/chimera/internal/rewriters"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/store"
	"github.com/eurosys26p57/chimera/internal/translate"
)

// The traced run replays the first replayBinaries distinct binaries among
// the first replayRequests requests; replayReq0 numbers replayed requests
// apart from the window's.
const (
	replayRequests = 200
	replayBinaries = 8
	replayReq0     = 1 << 30
)

// covResets and resets are how many coverage and process resets one span
// times: a single reset takes microseconds, below what one span resolves
// well.
const (
	covResets = 64
	resets    = 8
)

// layerCounts are the work counts the replay observes, summed over
// replayed binaries.
type layerCounts struct {
	binaries                    int
	insts, sitesHigh            int
	sites, trapEntries          int
	blocksBuilt, tracesBuilt    uint64
	traceRetired, instret       uint64
	picHits, picLookups         uint64
	runtimeRewrites, recoveries uint64
}

// replayBinary pushes one of the workload's binaries through every layer,
// as one replayed request whose top-level spans are the calls:
//
//   - the served path: POST /rewrite (chbp with batching off, a key no
//     workload sends, so it is always a miss) and POST /run of its answer
//     with the original as sibling view — the server's own trace spans are
//     fetched later and nested under these;
//   - the public functions the server calls for those two requests, each
//     timed alone: wire decode/encode, obj, store, dis, resolve, cfg,
//     liveness, translate, chbp, the baseline rewriters, kernel load, a
//     cold and a warm run around a reset;
//   - the layers of the fuzz and Fig. 11 paths: coverage reset,
//     heterosys.Prepare and a two-task schedule on one base and one
//     extension core.
//
// A binary with vector code is downgraded to rv64gc, a scalar one upgraded
// to rv64gcv.
func replayBinary(ctx context.Context, c *client, rec *recorder, req int, img *obj.Image, n *layerCounts) error {
	wire, err := wireOf(img)
	if err != nil {
		return err
	}
	hasV := img.ISA.Has(riscv.ExtV)
	target := riscv.RV64GCV
	if hasV {
		target = riscv.RV64GC
	}
	root := rec.begin(req, -1, "replay")
	defer rec.end(root)
	t := func(name string, fn func()) { rec.timed(req, root, name, fn) }
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("replaying %s: %w", img.Name, err)
		}
	}

	// Served path.
	rcfg := rewriteConfig{method: "chbp", target: target, noBatching: true}
	var body []byte
	t("client.encode", func() { body = rewriteRequest(rcfg, wire) })
	c.rec, c.req = rec, req
	defer func() { c.rec, c.parent = nil, -1 }()
	var served *rewriteAnswer
	c.parent = rec.begin(req, root, "served.rewrite")
	served, err = postRewrite(ctx, c, rcfg, body, false)
	keep(err)
	rec.end(c.parent)
	if served == nil {
		return firstErr
	}
	var runReq []byte
	t("client.encode", func() {
		runReq, err = json.Marshal(runBody{ISA: isaName(target), Image: served.Image, With: wire})
		keep(err)
	})
	c.parent = rec.begin(req, root, "served.run")
	var ran runAnswer
	keep(c.call(ctx, "POST", "/run", runReq, &ran))
	rec.end(c.parent)

	// The same work, one public function at a time.
	var rb rewriteBody
	t("wire.json_decode", func() { keep(json.Unmarshal(body, &rb)) })
	var in *obj.Image
	t("obj.read_image", func() { in, err = readWire(rb.Image); keep(err) })
	if in == nil {
		return firstErr
	}
	var id string
	t("obj.content_id", func() { id, err = in.ContentID(); keep(err) })
	var d *dis.Result
	t("dis.disassemble", func() { d = dis.Disassemble(in) })
	var ts *resolve.TargetSet
	t("resolve.resolve", func() { ts = resolve.Resolve(in) })
	var g *cfg.Graph
	t("cfg.build", func() { g = cfg.Build(d) })
	t("liveness.analyze", func() { liveness.Analyze(g) })
	t("translate.match", func() {
		translate.MatchUpgrades(d)
		if hasV {
			translate.MatchVectorDowngrades(d)
		}
	})
	var res *chbp.Result
	t("chbp.rewrite", func() { res, err = chbp.Rewrite(in, chbp.Options{TargetISA: target}); keep(err) })
	t("rewriters.safer", func() { _, err = rewriters.SaferWith(in, target, false, ts); keep(err) })
	t("rewriters.armore", func() { _, err = rewriters.ARMoreWith(in, target, false, nil); keep(err) })
	if res == nil {
		return firstErr
	}
	var out []byte
	t("obj.write_image", func() { out, err = wireOf(res.Image); keep(err) })
	mem := store.NewMemory(64<<20, store.Counters{})
	t("store.put", func() { keep(mem.Put(&store.Entry{Key: id, Data: out})) })
	t("store.get", func() {
		if _, ok := mem.Get(id); !ok {
			keep(fmt.Errorf("store lost key %s", id))
		}
	})
	t("wire.json_encode", func() { _, err = json.Marshal(rewriteAnswer{Key: id, Image: out}); keep(err) })

	var p *kernel.Process
	t("kernel.load", func() {
		rw, err := kernel.VariantFromImage(res.Image.Clone())
		keep(err)
		orig, err := kernel.VariantFromImage(img.Clone())
		keep(err)
		p, err = kernel.NewProcess(img.Name, []kernel.Variant{rw, orig})
		keep(err)
	})
	if p == nil {
		return firstErr
	}
	t("kernel.run_cold", func() { _, err = bench.RunOnCore(p, target); keep(err) })
	b := p.CPU.Blocks
	n.blocksBuilt += b.Built
	n.tracesBuilt += b.TracesBuilt
	n.traceRetired += b.TraceRetired
	n.instret += p.CPU.Instret
	n.picHits += b.PICHits
	n.picLookups += b.PICHits + b.PICMisses
	n.runtimeRewrites += p.Counters.RuntimeRewrites
	n.recoveries += p.Counters.FaultRecoveries
	t("kernel.reset", func() {
		for i := 0; i < resets; i++ {
			p.Reset()
		}
	})
	t("kernel.run_warm", func() { _, err = bench.RunOnCore(p, target); keep(err) })
	cov := instrument.NewCoverage()
	t("instrument.cov_reset", func() {
		for i := 0; i < covResets; i++ {
			cov.Reset()
		}
	})
	var pr *heterosys.Prepared
	t("heterosys.prepare", func() { pr, err = heterosys.Prepare(heterosys.Chimera, img, img, hasV); keep(err) })
	if pr != nil {
		t("kernel.sched", func() {
			s := kernel.NewScheduler(kernel.NewMachine(1, 1))
			for _, ext := range []bool{true, false} {
				task, err := pr.NewTask(img.Name, ext)
				keep(err)
				if task != nil {
					s.Submit(task)
				}
			}
			_, err := s.Run()
			keep(err)
		})
	}
	n.binaries++
	n.insts += len(d.Order)
	n.sitesHigh += ts.Summary().SitesHigh
	n.sites += res.Stats.Sites
	n.trapEntries += res.Stats.TrapEntries
	return firstErr
}

// perLayer turns the traced run's spans and the replay's counts into the
// per-layer metrics. hitRatio is the store hit ratio over the window's
// lookups; overheadPct the traced half's p50 over the untraced half's.
func perLayer(rec *recorder, n *layerCounts, hitRatio, overheadPct, accountingGapPct float64) map[string]metric {
	rec.mu.Lock()
	spans := append([]spanRec(nil), rec.spans...)
	rec.mu.Unlock()
	tab := aggregate(spans)

	var unacc, unaccN float64
	for _, s := range spans {
		if len(s.Name) > 7 && s.Name[:7] == "server." {
			unacc += spans[s.Parent].durUS() - s.durUS()
			unaccN++
		}
	}
	if unaccN > 0 {
		unacc /= unaccN * 1e3
	}
	bins := float64(max(n.binaries, 1))
	ms := func(v float64) metric { return metric{v, "ms"} }
	phases := tab.durMS("dis.disassemble") + tab.durMS("cfg.build") +
		tab.durMS("liveness.analyze") + tab.durMS("translate.match")
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	return map[string]metric{
		"client.roundtrip_ms":             ms(tab.durMS("client.roundtrip")),
		"client.decode_ms":                ms(tab.durMS("client.decode")),
		"service.unaccounted_ms":          ms(unacc),
		"service.queue_wait_ms":           ms(tab.selfMS("service.queue_wait")),
		"service.cache_lookup_ms":         ms(tab.selfMS("service.cache_lookup")),
		"service.rewrite_attempt_ms":      ms(tab.selfMS("service.rewrite_attempt")),
		"service.cache_store_ms":          ms(tab.selfMS("service.cache_store")),
		"service.run_exec_ms":             ms(tab.selfMS("service.run_exec")),
		"store.hit_ratio":                 {hitRatio, "ratio"},
		"wire.json_decode_ms":             ms(tab.durMS("wire.json_decode")),
		"wire.json_encode_ms":             ms(tab.durMS("wire.json_encode")),
		"obj.read_image_ms":               ms(tab.durMS("obj.read_image")),
		"obj.content_id_ms":               ms(tab.durMS("obj.content_id")),
		"obj.write_image_ms":              ms(tab.durMS("obj.write_image")),
		"store.get_ms":                    ms(tab.durMS("store.get")),
		"store.put_ms":                    ms(tab.durMS("store.put")),
		"dis.disassemble_ms":              ms(tab.durMS("dis.disassemble")),
		"resolve.resolve_ms":              ms(tab.durMS("resolve.resolve")),
		"cfg.build_ms":                    ms(tab.durMS("cfg.build")),
		"liveness.analyze_ms":             ms(tab.durMS("liveness.analyze")),
		"translate.match_ms":              ms(tab.durMS("translate.match")),
		"chbp.rewrite_ms":                 ms(tab.durMS("chbp.rewrite")),
		"chbp.layout_encode_ms":           ms(max(0, tab.durMS("chbp.rewrite")-phases)),
		"rewriters.safer_ms":              ms(tab.durMS("rewriters.safer")),
		"rewriters.armore_ms":             ms(tab.durMS("rewriters.armore")),
		"kernel.load_ms":                  ms(tab.durMS("kernel.load")),
		"kernel.run_cold_ms":              ms(tab.durMS("kernel.run_cold")),
		"kernel.run_warm_ms":              ms(tab.durMS("kernel.run_warm")),
		"emu.build_ms":                    ms(max(0, tab.durMS("kernel.run_cold")-tab.durMS("kernel.run_warm"))),
		"kernel.reset_us":                 {1e3 * tab.durMS("kernel.reset") / resets, "us"},
		"instrument.cov_reset_us":         {1e3 * tab.durMS("instrument.cov_reset") / covResets, "us"},
		"heterosys.prepare_ms":            ms(tab.durMS("heterosys.prepare")),
		"kernel.sched_ms":                 ms(tab.durMS("kernel.sched")),
		"dis.insts":                       {float64(n.insts) / bins, "count"},
		"resolve.sites_high":              {float64(n.sitesHigh) / bins, "count"},
		"chbp.sites":                      {float64(n.sites) / bins, "count"},
		"chbp.trap_entries":               {float64(n.trapEntries) / bins, "count"},
		"emu.blocks_built_per_run":        {float64(n.blocksBuilt) / bins, "count"},
		"emu.traces_built_per_run":        {float64(n.tracesBuilt) / bins, "count"},
		"emu.trace_retired_frac":          {ratio(n.traceRetired, n.instret), "ratio"},
		"emu.pic_hit_ratio":               {ratio(n.picHits, n.picLookups), "ratio"},
		"kernel.runtime_rewrites_per_run": {float64(n.runtimeRewrites) / bins, "count"},
		"kernel.fault_recoveries_per_run": {float64(n.recoveries) / bins, "count"},
		"trace_overhead_pct":              {overheadPct, "%"},
		"replay.accounting_gap_pct":       {accountingGapPct, "%"},
	}
}

// accountingGapPct is, over replayed requests, the largest share of a
// replay's wall time that its top-level spans do not cover.
func accountingGapPct(rec *recorder) float64 {
	rec.mu.Lock()
	spans := append([]spanRec(nil), rec.spans...)
	rec.mu.Unlock()
	self := selfTimes(spans)
	worst := 0.0
	for i, s := range spans {
		if s.Name == "replay" && s.durUS() > 0 {
			worst = max(worst, 100*self[i]/s.durUS())
		}
	}
	return worst
}
