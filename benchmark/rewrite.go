package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"github.com/eurosys26p57/chimera/internal/chbp"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/resolve"
	"github.com/eurosys26p57/chimera/internal/rewriters"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// methods are the rewriters the service exposes.
var methods = []string{"strawman", "safer", "armore", "chbp"}

// rewriteConfig is the option set of one /rewrite request.
type rewriteConfig struct {
	method     string
	target     riscv.Ext
	emptyPatch bool
	resolve    bool
	noBatching bool
}

// rewriteBody is the POST /rewrite JSON body.
type rewriteBody struct {
	Method          string `json:"method"`
	Target          string `json:"target"`
	EmptyPatch      bool   `json:"empty_patch,omitempty"`
	DisableBatching bool   `json:"disable_batching,omitempty"`
	Resolve         bool   `json:"resolve,omitempty"`
	Image           []byte `json:"image"`
}

// rewriteAnswer is the part of the /rewrite answer the checks read.
type rewriteAnswer struct {
	Key            string `json:"key"`
	Method         string `json:"method"`
	Target         string `json:"target"`
	Image          []byte `json:"image"`
	CacheHit       bool   `json:"cache_hit"`
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason"`
}

// isaName spells the two core classes the way the API parses them
// (riscv.Ext.String spells out the letters instead).
func isaName(isa riscv.Ext) string {
	if isa.Has(riscv.ExtV) {
		return "rv64gcv"
	}
	return "rv64gc"
}

func rewriteRequest(cfg rewriteConfig, wire []byte) []byte {
	b, err := json.Marshal(rewriteBody{
		Method: cfg.method, Target: isaName(cfg.target), EmptyPatch: cfg.emptyPatch,
		DisableBatching: cfg.noBatching, Resolve: cfg.resolve, Image: wire,
	})
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return b
}

// checkRewrite rejects an answer that is degraded, echoes the wrong
// request, has the wrong cache outcome or carries no image.
func checkRewrite(a *rewriteAnswer, cfg rewriteConfig, wantHit bool) error {
	switch {
	case a.Degraded:
		return fmt.Errorf("degraded rewrite: %s", a.DegradedReason)
	case a.Method != cfg.method || a.Target != cfg.target.String():
		return fmt.Errorf("answer is for %s/%s, asked %s/%s", a.Method, a.Target, cfg.method, cfg.target)
	case a.CacheHit != wantHit:
		return fmt.Errorf("cache_hit = %t, want %t", a.CacheHit, wantHit)
	case len(a.Image) == 0:
		return fmt.Errorf("empty image")
	}
	return nil
}

// postRewrite sends one /rewrite and checks the answer's envelope.
func postRewrite(ctx context.Context, c *client, cfg rewriteConfig, body []byte, wantHit bool) (*rewriteAnswer, error) {
	var a rewriteAnswer
	if err := c.call(ctx, "POST", "/rewrite", body, &a); err != nil {
		return nil, err
	}
	if err := checkRewrite(&a, cfg, wantHit); err != nil {
		return nil, err
	}
	return &a, nil
}

// directRewrite is the reference rewrite: the rewriter libraries called in
// process, with the service's option mapping but none of its serving
// path (wire decode, store, worker pool, encode). Its wire bytes are what
// a correct /rewrite answer must carry.
func directRewrite(img *obj.Image, cfg rewriteConfig) ([]byte, error) {
	var ts *resolve.TargetSet
	if cfg.resolve {
		ts = resolve.Resolve(img)
	}
	var out *obj.Image
	switch cfg.method {
	case "chbp", "strawman":
		opts := chbp.Options{
			TargetISA: cfg.target, EmptyPatch: cfg.emptyPatch,
			DisableBatching: cfg.noBatching, Resolve: cfg.resolve,
		}
		if cfg.method == "strawman" {
			opts.Trampoline = chbp.TrapEntry
		}
		res, err := chbp.Rewrite(img, opts)
		if err != nil {
			return nil, err
		}
		out = res.Image
	case "safer":
		res, err := rewriters.SaferWith(img, cfg.target, cfg.emptyPatch, ts)
		if err != nil {
			return nil, err
		}
		out = res.Image
	case "armore":
		res, err := rewriters.ARMoreWith(img, cfg.target, cfg.emptyPatch, ts)
		if err != nil {
			return nil, err
		}
		out = res.Image
	default:
		return nil, fmt.Errorf("unknown method %q", cfg.method)
	}
	return wireOf(out)
}

func wireOf(img *obj.Image) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("serializing %s: %w", img.Name, err)
	}
	return buf.Bytes(), nil
}

func readWire(wire []byte) (*obj.Image, error) { return obj.ReadImage(bytes.NewReader(wire)) }

// specPool builds n SPEC/real-world-shaped RV64GCV programs; the seed
// gives each its generator seed. Image j has a fixed Table 3 shape
// (SpecSuite+RealWorldSuite, dealt in rounds so each appears equally often)
// and a fixed code size: sizes are evenly spaced in log scale over
// [minKB, maxKB], the j-th at the middle of the j-th of n log-size strata.
// Shape and size set rewrite and transfer cost — some shapes' chbp
// answers are 2 MiB, others 100 KiB — so fixing them keeps run time
// comparable across seeds while the programs themselves vary.
func specPool(seed int64, n, minKB, maxKB int, rounds int64) ([]*obj.Image, error) {
	cases := append(workload.SpecSuite(), workload.RealWorldSuite()...)
	rng := rand.New(rand.NewSource(seed))
	deal := cycleStream(0, len(cases), n)
	out := make([]*obj.Image, n)
	span := math.Log(float64(maxKB) / float64(minKB))
	for j := range out {
		p := cases[deal[j]].Params
		p.Name = fmt.Sprintf("%s.%d", p.Name, j)
		p.Seed = rng.Int63()
		p.Rounds = rounds
		p.CodeKB = int(float64(minKB) * math.Exp(span*(float64(j)+0.5)/float64(n)))
		img, err := workload.BuildSpec(p, true)
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", p.Name, err)
		}
		out[j] = img
	}
	return out, nil
}

// replayPick returns the pool indices of the first `max` distinct items
// among the first `requests` requests of a stream: the binaries the traced
// run replays layer by layer.
func replayPick(item func(i int) int, requests, max int) []int {
	seen := make(map[int]bool)
	var out []int
	for i := 0; i < requests && len(out) < max; i++ {
		if k := item(i); !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// ---- rewrite-cold ----------------------------------------------------------

// coldConfigs are the 16 option sets every cold image is rewritten under:
// 4 methods × resolver on/off × {downgrade to rv64gc, rv64gcv empty patch}.
func coldConfigs() []rewriteConfig {
	var out []rewriteConfig
	for _, m := range methods {
		for _, res := range []bool{false, true} {
			out = append(out,
				rewriteConfig{method: m, target: riscv.RV64GC, resolve: res},
				rewriteConfig{method: m, target: riscv.RV64GCV, resolve: res, emptyPatch: true})
		}
	}
	return out
}

// coldPool is the rewrite-cold image count; × 16 configs it gives 4096
// distinct keys; a 20 s run on a 2-core host sends about 2500.
const coldPool = 256

// rewriteCold sends every (image, config) key at most once, so every
// /rewrite is a cache miss.
type rewriteCold struct {
	wires   [][]byte
	configs []rewriteConfig
	keys    stream

	mu      sync.Mutex
	answers []coldAnswer
}

type coldAnswer struct {
	key int
	sum [sha256.Size]byte
}

func newRewriteCold() load { return &rewriteCold{configs: coldConfigs()} }

func (w *rewriteCold) setup(ctx context.Context, e *env, seed int64) error {
	imgs, err := specPool(seed, coldPool, 64, 512, 4)
	if err != nil {
		return err
	}
	for _, img := range imgs {
		wire, err := wireOf(img)
		if err != nil {
			return err
		}
		w.wires = append(w.wires, wire)
	}
	w.keys = cycleStream(seed, len(w.wires)*len(w.configs), len(w.wires)*len(w.configs))
	return nil
}

func (w *rewriteCold) key(k int) (int, rewriteConfig) {
	return k / len(w.configs), w.configs[k%len(w.configs)]
}

func (w *rewriteCold) op(ctx context.Context, c *client, i int) error {
	if i >= len(w.keys) {
		return errPoolExhausted
	}
	k := w.keys[i]
	img, cfg := w.key(k)
	body := rewriteRequest(cfg, w.wires[img])
	a, err := postRewrite(ctx, c, cfg, body, false)
	if err != nil {
		return err
	}
	w.mu.Lock()
	w.answers = append(w.answers, coldAnswer{key: k, sum: sha256.Sum256(a.Image)})
	w.mu.Unlock()
	return nil
}

// verify recomputes every answer with directRewrite, two at a time.
func (w *rewriteCold) verify() (int, error) {
	var (
		mu     sync.Mutex
		failed int
		first  error
	)
	parallel(len(w.answers), func(j int) error {
		a := w.answers[j]
		img, cfg := w.key(a.key)
		if err := checkAgainstReference(w.wires[img], cfg, a.sum); err != nil {
			mu.Lock()
			failed++
			if first == nil {
				first = err
			}
			mu.Unlock()
		}
		return nil
	})
	return failed, first
}

// checkAgainstReference compares an answer's digest with the reference
// rewrite of the request.
func checkAgainstReference(wire []byte, cfg rewriteConfig, sum [sha256.Size]byte) error {
	img, err := readWire(wire)
	if err != nil {
		return err
	}
	ref, err := directRewrite(img, cfg)
	if err != nil {
		return fmt.Errorf("reference rewrite of %s: %w", img.Name, err)
	}
	if sha256.Sum256(ref) != sum {
		return fmt.Errorf("%s, %s to %s (resolve %t, empty patch %t): served image differs from the reference rewrite",
			img.Name, cfg.method, isaName(cfg.target), cfg.resolve, cfg.emptyPatch)
	}
	return nil
}

func (w *rewriteCold) replay() ([]*obj.Image, error) {
	var out []*obj.Image
	for _, j := range replayPick(func(i int) int { img, _ := w.key(w.keys[i]); return img }, min(replayRequests, len(w.keys)), replayBinaries) {
		img, err := readWire(w.wires[j])
		if err != nil {
			return nil, err
		}
		out = append(out, img)
	}
	return out, nil
}

func (w *rewriteCold) info(wall float64) map[string]any { return nil }

// ---- rewrite-warm ----------------------------------------------------------

const (
	warmImages = 12
	warmZipfS  = 1.1
	warmOrder  = 1963 // seed of the fixed popularity shuffle
)

// rewriteWarm replays 48 prewarmed keys (12 images × 4 methods, rv64gc)
// in Zipf proportions and a seeded order, so every /rewrite is a cache hit.
type rewriteWarm struct {
	imgs    []*obj.Image
	wires   [][]byte
	configs []rewriteConfig
	bodies  [][]byte
	want    [][sha256.Size]byte
	keys    stream
	hits    []atomic.Int64 // per key: answers served in the window
}

func newRewriteWarm() load { return &rewriteWarm{} }

func (w *rewriteWarm) setup(ctx context.Context, e *env, seed int64) error {
	imgs, err := specPool(seed, warmImages, 64, 512, 4)
	if err != nil {
		return err
	}
	w.imgs = imgs
	n := len(imgs) * len(methods)
	w.wires = make([][]byte, len(imgs))
	w.configs = make([]rewriteConfig, n)
	w.bodies = make([][]byte, n)
	w.want = make([][sha256.Size]byte, n)
	for j, img := range imgs {
		if w.wires[j], err = wireOf(img); err != nil {
			return err
		}
		for m, method := range methods {
			k := j*len(methods) + m
			w.configs[k] = rewriteConfig{method: method, target: riscv.RV64GC}
			w.bodies[k] = rewriteRequest(w.configs[k], w.wires[j])
		}
	}
	err = parallel(n, func(k int) error {
		a, err := postRewrite(ctx, e.clients[0], w.configs[k], w.bodies[k], false)
		if err != nil {
			return fmt.Errorf("prewarming key %d: %w", k, err)
		}
		w.want[k] = sha256.Sum256(a.Image)
		return nil
	})
	if err != nil {
		return err
	}
	// Popularity rank -> key through one fixed shuffle, so the hot keys mix
	// image sizes and methods the same way for every seed. Answer sizes
	// range from 100 KiB to 2.5 MiB, so latency is a mixture with one mode
	// per key; this shuffle was picked so that each of the 50th and 90th
	// percentiles sits within one key's share of the traffic, or among keys
	// of near-equal latency, at least 3.5% of the traffic from any edge to
	// a slower or faster mode. The 90th lands among the seven chbp answers
	// that carry a 2 MiB .chimera.text, which hold ~19% of the traffic.
	order := rand.New(rand.NewSource(warmOrder)).Perm(n)
	w.keys = zipfStream(seed, n, warmZipfS, 1<<16)
	for i, r := range w.keys {
		w.keys[i] = order[r]
	}
	w.hits = make([]atomic.Int64, n)
	return nil
}

func (w *rewriteWarm) op(ctx context.Context, c *client, i int) error {
	k := w.keys.at(i)
	a, err := postRewrite(ctx, c, w.configs[k], w.bodies[k], true)
	if err != nil {
		return err
	}
	if sha256.Sum256(a.Image) != w.want[k] {
		return fmt.Errorf("key %d: warm answer differs from its prewarm answer", k)
	}
	w.hits[k].Add(1)
	return nil
}

// verify checks the prewarm answers, which every warm answer matched,
// against the reference rewrite; a wrong one fails every op that hit it.
func (w *rewriteWarm) verify() (int, error) {
	for k, sum := range w.want {
		if err := checkAgainstReference(w.wires[k/len(methods)], w.configs[k], sum); err != nil {
			return int(w.hits[k].Load()), err
		}
	}
	return 0, nil
}

func (w *rewriteWarm) replay() ([]*obj.Image, error) {
	var out []*obj.Image
	for _, k := range replayPick(func(i int) int { return w.keys.at(i) / len(methods) }, replayRequests, replayBinaries) {
		out = append(out, w.imgs[k])
	}
	return out, nil
}

func (w *rewriteWarm) info(wall float64) map[string]any { return nil }
