package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"deepmc/internal/core"
	"deepmc/internal/ir"
	"deepmc/internal/serve"
)

// serve-mixed: the analysis daemon on loopback with two closed-loop
// clients.  An op is one /analyze request from a seeded mix: fresh
// small modules (cache misses), repeats of a module the same client
// already got an answer for (verdict-cache hits), identical requests
// both clients send at once (coalesced), and malformed PIR (400).  Each
// round starts a fresh daemon, so every round sees the same cold-cache
// mix.  A 200 response must equal the batch core.AnalyzeCtx report byte
// for byte, and the generated modules flush and fence every store, so
// their reports must be clean.
var serveMixedSpec = workloadSpec{
	name:    "serve-mixed",
	clients: 2,
	// ~200 requests a round, a quarter of them misses; p90 sits among
	// the misses with hundreds of samples beyond it in a full-length run.
	tailPct:   90,
	setupReps: 7,
	setup:     setupServeMixed,
}

// The mix's proportions are not taken from a measured trace of the
// daemon's traffic: they are chosen so that each path (miss, hit,
// coalesced, 400) runs every round.
const (
	serveFreshPerClient = 48 // distinct modules each client sends first
	serveRepeats        = 3  // later repeats of each of them
	serveCoalesced      = 4  // requests both clients send together
	serveMalformed      = 2  // per client
)

// serveModule is one distinct request body with its expected answer.
type serveModule struct {
	in   staticInput
	body []byte // request JSON
	want []byte // batch report JSON; nil = expect 400
	// unclean is the batch report's disagreement with the clean
	// expectation (checkStatic), and whether it is the known defect.
	unclean      string
	uncleanKnown bool
}

type serveOp struct {
	mod  int // index into serveMixed.mods
	meet int // rendezvous index of a coalesced request, -1 otherwise
}

type serveMixed struct {
	mods   []serveModule
	ops    [2][]serveOp
	client *http.Client
	tr     *tracer
	static staticLayers

	mu                                  sync.Mutex
	admitted, shed, coalesced           int64
	vHits, vMiss, tHits, tMiss, okBytes float64
	okResponses                         float64
}

func setupServeMixed(o options, tr *tracer) (instance, error) {
	rng := rand.New(rand.NewSource(o.seed*104729 + 3))
	// Module structures are drawn as at seed 0 for every seed, and other
	// seeds redraw the values they store, as static-apps does.  Stored
	// values do not change the verdicts, so no module here has a
	// known-defect warning at any seed and every warning is unexpected.
	structRng := rand.New(rand.NewSource(3))
	sm := &serveMixed{tr: tr}
	fresh := serveFreshPerClient
	if o.short {
		fresh = 3
	}
	addModule := func(name string) (int, error) {
		// Two functions over two call layers: a few ms of analysis each,
		// so a round holds enough misses for their mean cost to vary
		// little from seed to seed.
		spec := core.AppSpec{Name: name, Funcs: 2, CallDepth: 2, Seed: structRng.Int63()}
		src := ir.Print(core.GenerateApp(spec))
		if o.seed != 0 {
			src = redrawStores(src, rng.Int63())
		}
		body, err := json.Marshal(serve.Request{Source: src})
		if err != nil {
			return 0, err
		}
		m, err := ir.Parse(src)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		rep, err := core.AnalyzeCtx(context.Background(), m, core.Config{})
		if err != nil {
			return 0, fmt.Errorf("%s batch analysis: %w", name, err)
		}
		want, err := rep.JSON()
		if err != nil {
			return 0, err
		}
		in := staticInput{name: name, src: src, generated: true}
		fail, known := checkStatic(in, rep.Warnings)
		sm.mods = append(sm.mods, serveModule{in: in, body: body, want: want, unclean: fail, uncleanKnown: known})
		return len(sm.mods) - 1, nil
	}
	var coal []int
	for k := 0; k < serveCoalesced; k++ {
		i, err := addModule(fmt.Sprintf("svc_%d_co%d", o.seed, k))
		if err != nil {
			return nil, err
		}
		coal = append(coal, i)
	}
	for c := 0; c < 2; c++ {
		var list []serveOp
		var seen []int
		for f := 0; f < fresh; f++ {
			i, err := addModule(fmt.Sprintf("svc_%d_c%d_%d", o.seed, c, f))
			if err != nil {
				return nil, err
			}
			list = append(list, serveOp{mod: i, meet: -1})
			seen = append(seen, i)
			// Repeats only of modules this client already got an
			// answer for, so each one is a verdict-cache hit.
			for r := 0; r < serveRepeats; r++ {
				list = append(list, serveOp{mod: seen[rng.Intn(len(seen))], meet: -1})
			}
		}
		for m := 0; m < serveMalformed; m++ {
			src := sm.mods[seen[rng.Intn(len(seen))]].in.src
			var bad string
			if m%2 == 0 {
				bad = src + "\nfunc (\n"
			} else {
				bad = src[:len(src)/2] + "\n@@@\n"
			}
			body, err := json.Marshal(serve.Request{Source: bad})
			if err != nil {
				return nil, err
			}
			sm.mods = append(sm.mods, serveModule{in: staticInput{name: fmt.Sprintf("malformed_%d_%d", c, m)}, body: body})
			pos := 1 + rng.Intn(len(list))
			list = append(list[:pos], append([]serveOp{{mod: len(sm.mods) - 1, meet: -1}}, list[pos:]...)...)
		}
		// Coalesced requests sit at the same relative order in both
		// lists; each is a rendezvous of the two clients.
		step := len(list) / (serveCoalesced + 1)
		for k := serveCoalesced - 1; k >= 0; k-- {
			pos := (k + 1) * step
			list = append(list[:pos], append([]serveOp{{mod: coal[k], meet: k}}, list[pos:]...)...)
		}
		sm.ops[c] = list
	}
	sm.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
	return sm, nil
}

func (sm *serveMixed) round(rec *roundRec) error {
	// One checker worker per request: the two clients' requests run
	// side by side on the two CPUs instead of a miss taking both and
	// stalling the other client's cache hits.
	srv, err := serve.NewServer(serve.Config{Workers: 1})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h := srv.Handler()
	if sm.tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent, _ := strconv.Atoi(r.Header.Get("X-Bench-Span"))
			sp := sm.tr.start("serve.handler", int32(parent))
			inner.ServeHTTP(w, r)
			sm.tr.finish(sp)
		})
	}
	hs := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(l) }()
	url := "http://" + l.Addr().String() + "/analyze"

	// One rendezvous per coalesced request.
	var meet [serveCoalesced]sync.WaitGroup
	for k := range meet {
		meet[k].Add(2)
	}
	c0 := processCPU()
	t0 := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = sm.runClient(url, sm.ops[c], rec.client(c), &meet)
		}(c)
	}
	wg.Wait()
	rec.elapsed = time.Since(t0)
	rec.cpu = processCPU() - c0

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	herr := hs.Shutdown(ctx)
	if err := <-served; err != http.ErrServerClosed && herr == nil {
		herr = err
	}
	sm.client.CloseIdleConnections()
	st := srv.Snapshot()
	cerr := srv.Close()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if herr != nil {
		return fmt.Errorf("stopping loopback server: %w", herr)
	}
	if cerr != nil {
		return fmt.Errorf("closing daemon: %w", cerr)
	}
	sm.mu.Lock()
	sm.admitted += st.Admitted
	sm.shed += st.Shed
	sm.coalesced += st.Coalesced
	sm.vHits += float64(st.Cache.VerdictHits)
	sm.vMiss += float64(st.Cache.VerdictMisses)
	sm.tHits += float64(st.Cache.TraceHits)
	sm.tMiss += float64(st.Cache.TraceMisses)
	sm.mu.Unlock()
	return nil
}

// runClient is one closed-loop client: it sends its next request only
// after the previous response has been read and checked.
func (sm *serveMixed) runClient(url string, ops []serveOp, rec *clientRec, meet *[serveCoalesced]sync.WaitGroup) error {
	// A client that stops early still arrives at every rendezvous it
	// has not reached, so the other client never waits forever.
	reached := 0
	defer func() {
		for ; reached < serveCoalesced; reached++ {
			meet[reached].Done()
		}
	}()
	for _, op := range ops {
		if op.meet >= 0 {
			reached++
			meet[op.meet].Done()
			meet[op.meet].Wait()
		}
		mod := &sm.mods[op.mod]
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(mod.body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		var sp int32
		if sm.tr != nil {
			sp = sm.tr.start("serve.request", -1)
			req.Header.Set("X-Bench-Span", strconv.Itoa(int(sp)))
		}
		t0 := time.Now()
		resp, err := sm.client.Do(req)
		if err != nil {
			return fmt.Errorf("%s: %w", mod.in.name, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		lat := time.Since(t0)
		if sm.tr != nil {
			sm.tr.finish(sp)
		}
		if err != nil {
			return fmt.Errorf("%s: reading response: %w", mod.in.name, err)
		}
		fail, known := "", false
		switch {
		case mod.want == nil:
			if resp.StatusCode != http.StatusBadRequest {
				fail = fmt.Sprintf("%s: status %d, want 400", mod.in.name, resp.StatusCode)
			}
		case resp.StatusCode != http.StatusOK:
			fail = fmt.Sprintf("%s: status %d: %s", mod.in.name, resp.StatusCode, got)
		case !bytes.Equal(got, mod.want):
			fail = fmt.Sprintf("%s: response differs from the batch report", mod.in.name)
		default:
			// The bytes are the batch report's, so its check against
			// the clean expectation applies.
			fail, known = mod.unclean, mod.uncleanKnown
			sm.mu.Lock()
			sm.okResponses++
			sm.okBytes += float64(len(got))
			sm.mu.Unlock()
		}
		rec.op(lat, fmt.Sprintf("%s %d %s", mod.in.name, resp.StatusCode, digest(got)), fail, known)
	}
	return nil
}

func (sm *serveMixed) layers(_, _ *phase) (map[string]float64, error) {
	// The static layers on this workload's inputs: one traced pipeline
	// run per distinct well-formed module, outside the timed rounds.
	for _, m := range sm.mods {
		if m.want == nil {
			continue
		}
		if _, _, err := sm.static.analyzeTraced(sm.tr, -1, m.in.src, ""); err != nil {
			return nil, err
		}
	}
	out := sm.static.metrics(sm.tr.stats())
	sm.mu.Lock()
	defer sm.mu.Unlock()
	frac := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	out["serve.handler_ms"] = sm.tr.stats()["serve.handler"].meanMs()
	out["serve.wire_ms"] = sm.tr.selfMs("serve.request", "serve.handler")
	out["serve.shed_frac"] = frac(float64(sm.shed), float64(sm.admitted))
	if sm.admitted > 0 {
		out["serve.coalesced_frac"] = float64(sm.coalesced) / float64(sm.admitted)
	}
	out["anacache.verdict_hit_frac"] = frac(sm.vHits, sm.vMiss)
	out["anacache.trace_hit_frac"] = frac(sm.tHits, sm.tMiss)
	if sm.okResponses > 0 {
		out["report.json_kb"] = sm.okBytes / sm.okResponses / 1e3
	}
	return out, nil
}

func (sm *serveMixed) close() { sm.client.CloseIdleConnections() }
