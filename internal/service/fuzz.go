package service

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/eurosys26p57/chimera/internal/fuzzsvc"
)

// Fuzz campaign admission bounds: request fields past these are clamped,
// not rejected, so a generous client cannot pin a worker forever.
const (
	fuzzMaxExecsCap    = 10_000_000
	fuzzMaxInputCap    = 4096
	fuzzExecBudgetCap  = 100_000_000
	fuzzMaxSeeds       = 64
	fuzzDeadlineCap    = time.Hour
	fuzzDefaultRuntime = 5 * time.Minute
	// fuzzKeepFinished bounds how many finished campaigns stay queryable;
	// past it the oldest finished campaign is evicted.
	fuzzKeepFinished = 32
)

// fuzzHTTPRequest is the POST /fuzz JSON body. Image is the obj wire
// format; Seeds entries are base64 byte strings (encoding/json []byte).
type fuzzHTTPRequest struct {
	Image           []byte   `json:"image"`
	Seeds           [][]byte `json:"seeds,omitempty"`
	MaxExecs        uint64   `json:"max_execs,omitempty"`
	MaxInput        int      `json:"max_input,omitempty"`
	ExecBudget      uint64   `json:"exec_budget,omitempty"`
	Seed            int64    `json:"seed,omitempty"`
	StopOnCrash     bool     `json:"stop_on_crash,omitempty"`
	DeadlineSeconds float64  `json:"deadline_seconds,omitempty"`
}

// fuzzCreateResponse answers POST /fuzz.
type fuzzCreateResponse struct {
	ID string `json:"id"`
}

// fuzzStatusResponse answers GET /fuzz/{id}: the campaign snapshot plus
// identity and any terminal error.
type fuzzStatusResponse struct {
	ID string `json:"id"`
	fuzzsvc.Snapshot
	Error string `json:"error,omitempty"`
}

// fuzzCorpusResponse answers GET /fuzz/{id}/corpus.
type fuzzCorpusResponse struct {
	ID      string   `json:"id"`
	Entries [][]byte `json:"entries"`
}

// fuzzCampaign is one tracked campaign: the engine plus its lifecycle.
type fuzzCampaign struct {
	id      string
	c       *fuzzsvc.Campaign
	cancel  context.CancelFunc
	done    chan struct{}
	created time.Time

	mu  sync.Mutex
	err error
}

func (fc *fuzzCampaign) setErr(err error) {
	fc.mu.Lock()
	fc.err = err
	fc.mu.Unlock()
}

func (fc *fuzzCampaign) getErr() error {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.err
}

// fuzzManager owns every campaign on the server: admission against the
// concurrency cap, id lookup, finished-campaign retention, and shutdown.
type fuzzManager struct {
	max int
	// run drives one campaign on its goroutine: (*fuzzsvc.Campaign).Run,
	// which tests replace to exercise a panicking campaign.
	run func(*fuzzsvc.Campaign, context.Context) error

	mu     sync.Mutex
	byID   map[string]*fuzzCampaign
	order  []string // creation order, for retention eviction
	active int
	nextID int

	runs sync.WaitGroup
}

func newFuzzManager(max int) *fuzzManager {
	return &fuzzManager{max: max, run: (*fuzzsvc.Campaign).Run, byID: make(map[string]*fuzzCampaign)}
}

// admit reserves a campaign slot and id, or reports the cap is hit.
func (m *fuzzManager) admit() (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.active >= m.max {
		return "", false
	}
	m.active++
	m.nextID++
	return fmt.Sprintf("fz-%d", m.nextID), true
}

// track registers an admitted campaign and evicts the oldest finished one
// past the retention bound.
func (m *fuzzManager) track(fc *fuzzCampaign) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.byID[fc.id] = fc
	m.order = append(m.order, fc.id)
	for len(m.order) > m.max+fuzzKeepFinished {
		evicted := false
		for i, id := range m.order {
			old := m.byID[id]
			select {
			case <-old.done:
				delete(m.byID, id)
				m.order = append(m.order[:i], m.order[i+1:]...)
				evicted = true
			default:
			}
			if evicted {
				break
			}
		}
		if !evicted {
			break // everything is still running; keep them all
		}
	}
}

func (m *fuzzManager) release() {
	m.mu.Lock()
	m.active--
	m.mu.Unlock()
}

func (m *fuzzManager) get(id string) (*fuzzCampaign, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fc, ok := m.byID[id]
	return fc, ok
}

func (m *fuzzManager) activeCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active
}

// stopAll cancels every campaign and waits for their goroutines.
func (m *fuzzManager) stopAll() {
	m.mu.Lock()
	for _, fc := range m.byID {
		fc.cancel()
	}
	m.mu.Unlock()
	m.runs.Wait()
}

// handleFuzz creates a campaign: POST /fuzz.
func (s *Server) handleFuzz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	if s.fuzz == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "fuzzing disabled (Config.MaxCampaigns < 0)"})
		return
	}
	w, _, tr := s.startTrace(w, r.Context(), "fuzz")
	defer tr.Finish()
	var body fuzzHTTPRequest
	wb, err := s.decodeBody(w, r, tr, &body)
	wb.release() // the fallback decoder copies every field out of the body
	if err != nil {
		writeError(w, err)
		return
	}
	img, _, err := decodeImage("image", body.Image)
	if err != nil {
		writeError(w, err)
		return
	}
	if len(body.Seeds) > fuzzMaxSeeds {
		writeError(w, fmt.Errorf("%w: at most %d seeds", ErrBadRequest, fuzzMaxSeeds))
		return
	}
	cfg := fuzzsvc.Config{
		Image:       img,
		Seeds:       body.Seeds,
		MaxExecs:    min(body.MaxExecs, fuzzMaxExecsCap),
		MaxInput:    min(body.MaxInput, fuzzMaxInputCap),
		ExecBudget:  min(body.ExecBudget, fuzzExecBudgetCap),
		Seed:        body.Seed,
		StopOnCrash: body.StopOnCrash,
		Chaos:       s.cfg.Chaos,
	}
	deadline := fuzzDefaultRuntime
	if body.DeadlineSeconds > 0 {
		// Clamp before the float64→Duration conversion: a huge or +Inf value
		// overflows to an implementation-defined (typically negative)
		// Duration, which would expire the campaign context immediately.
		if body.DeadlineSeconds >= fuzzDeadlineCap.Seconds() {
			deadline = fuzzDeadlineCap
		} else {
			deadline = time.Duration(body.DeadlineSeconds * float64(time.Second))
		}
	}
	id, ok := s.fuzz.admit()
	if !ok {
		writeJSON(w, http.StatusTooManyRequests,
			errorResponse{Error: fmt.Sprintf("campaign cap reached (%d active)", s.fuzz.max)})
		return
	}
	camp, err := fuzzsvc.New(cfg)
	if err != nil {
		s.fuzz.release()
		writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	fc := &fuzzCampaign{id: id, c: camp, cancel: cancel, done: make(chan struct{}), created: time.Now()}
	s.fuzz.track(fc)
	s.fold(func(t *totals) { t.fuzz.Campaigns++ })
	s.fuzz.runs.Add(1)
	s.spawn("campaign", func() error {
		return s.fuzz.run(camp, ctx)
	}, func(err error) {
		// Fold here, not after run returns: a campaign that panics
		// still counts the execs it ran.
		snap := camp.Snapshot()
		s.fold(func(t *totals) { t.fuzz.add(snap) })
		fc.setErr(err)
		s.fuzz.release()
		cancel()
		close(fc.done)
		s.fuzz.runs.Done()
	})
	writeJSON(w, http.StatusAccepted, fuzzCreateResponse{ID: id})
}

// handleFuzzGet serves GET /fuzz/{id} and GET /fuzz/{id}/corpus.
func (s *Server) handleFuzzGet(w http.ResponseWriter, r *http.Request) {
	if s.fuzz == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "fuzzing disabled (Config.MaxCampaigns < 0)"})
		return
	}
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET only"})
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/fuzz/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "campaign id required: GET /fuzz/{id}"})
		return
	}
	fc, ok := s.fuzz.get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "campaign not found (evicted or never existed): " + id})
		return
	}
	switch sub {
	case "":
		resp := fuzzStatusResponse{ID: fc.id, Snapshot: fc.c.Snapshot()}
		if err := fc.getErr(); err != nil {
			resp.Error = err.Error()
		}
		writeJSON(w, http.StatusOK, resp)
	case "corpus":
		writeJSON(w, http.StatusOK, fuzzCorpusResponse{ID: fc.id, Entries: fc.c.CorpusEntries()})
	default:
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown campaign resource: " + sub})
	}
}

// FuzzStats is the /stats fuzzing block.
type FuzzStats struct {
	Campaigns uint64 `json:"campaigns"`
	Active    int    `json:"active"`
	Execs     uint64 `json:"execs"`
	Hangs     uint64 `json:"hangs"`
	Crashes   uint64 `json:"crashes_unique"`
	Corpus    uint64 `json:"corpus_entries"`
	Edges     uint64 `json:"edges"`
}

// add folds one finished campaign's totals.
func (f *FuzzStats) add(s fuzzsvc.Snapshot) {
	f.Execs += s.Execs
	f.Hangs += s.Hangs
	f.Crashes += uint64(len(s.Crashes))
	f.Corpus += uint64(s.Corpus)
	f.Edges += uint64(s.Edges)
}
