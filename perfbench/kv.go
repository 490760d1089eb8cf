package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"deepmc/internal/apps/memcache"
	"deepmc/internal/apps/nstore"
	"deepmc/internal/apps/redis"
	"deepmc/internal/nvm"
	"deepmc/internal/pmem"
	"deepmc/internal/pmem/mnemosyne"
	"deepmc/internal/pmem/pmdk"
	"deepmc/internal/workload"
)

// runtime-kv: the Figure 12 workload.  Memcached (over Mnemosyne), Redis
// (over PMDK) and NStore (raw NVM) run with the dynamic checker attached
// through pmem.CheckerTracker.  Two closed-loop clients each replay a
// fixed seeded op list per round: for each app, a stream from the
// repository's YCSB-A generator (workload.YCSBMixes()[0]: 50% updates,
// 50% reads, zipfian keys), the three streams taken in turn.
// Writes are ownership-partitioned (client c owns keys = c mod 2), so
// every read has one right answer: the stamp of the client's last write
// to that key, kept in the benchmark's own model.  The fixed apps must
// also leave the dynamic checker silent.
var runtimeKVSpec = workloadSpec{
	name:    "runtime-kv",
	clients: 2,
	// 16k ops per round: p95 has hundreds of samples beyond it even in
	// one round; p99 would measure host-level stalls (CPU steal).
	tailPct:   95,
	setupReps: 7,
	setup:     setupRuntimeKV,
}

const (
	kvClients       = 2
	kvKeysPerClient = 4096
	kvOpsPerClient  = 8000
	kvApps          = 3
)

var kvAppNames = [kvApps]string{"memcache", "redis", "nstore"}

// kvApp is one application under test, reduced to the stamped
// key/value surface the benchmark checks.
type kvApp interface {
	set(thread int64, key, stamp uint64) error
	get(thread int64, key uint64) (uint64, bool, error)
	pool() *nvm.Pool
}

type memcacheApp struct{ s *memcache.Store }

func (a memcacheApp) set(thread int64, key, stamp uint64) error {
	words := make([]uint64, memcache.ValueWords)
	for i := range words {
		words[i] = stamp ^ uint64(i)*0x9e3779b97f4a7c15
	}
	return a.s.Set(thread, key, words)
}

func (a memcacheApp) get(thread int64, key uint64) (uint64, bool, error) {
	v, ok, err := a.s.Get(thread, key)
	if err != nil || !ok {
		return 0, ok, err
	}
	return v[0], true, nil
}

func (a memcacheApp) pool() *nvm.Pool { return a.s.Region().NVM() }

type redisApp struct{ db *redis.DB }

func (a redisApp) set(thread int64, key, stamp uint64) error {
	var buf [redis.ValueBytes]byte
	binary.LittleEndian.PutUint64(buf[:8], stamp)
	return a.db.Set(thread, key, buf[:])
}

func (a redisApp) get(thread int64, key uint64) (uint64, bool, error) {
	b, ok, err := a.db.Get(thread, key)
	if err != nil || !ok {
		return 0, ok, err
	}
	return binary.LittleEndian.Uint64(b[:8]), true, nil
}

func (a redisApp) pool() *nvm.Pool { return a.db.Pool().NVM() }

type nstoreApp struct{ e *nstore.Engine }

func (a nstoreApp) set(thread int64, key, stamp uint64) error {
	words := make([]uint64, nstore.TupleWords)
	for i := range words {
		words[i] = stamp ^ uint64(i)*0xff51afd7ed558ccd
	}
	return a.e.Update(thread, key, words)
}

func (a nstoreApp) get(thread int64, key uint64) (uint64, bool, error) {
	v, ok, err := a.e.Read(thread, key)
	if err != nil || !ok {
		return 0, ok, err
	}
	return v[0], true, nil
}

func (a nstoreApp) pool() *nvm.Pool { return a.e.NVM() }

// openKVApps opens the three apps, each with its own tracker (nil =
// untracked), with pools sized to the key space.
func openKVApps(keys uint64, trackers [kvApps]pmem.Tracker) ([kvApps]kvApp, error) {
	var apps [kvApps]kvApp
	ms, err := memcache.Open(memcache.Config{
		Buckets: 1 << 12,
		Region:  mnemosyne.Config{NVM: nvm.Config{Size: 4<<20 + int(keys)*192}, Tracker: trackers[0]},
	})
	if err != nil {
		return apps, err
	}
	db, err := redis.Open(redis.Config{
		Buckets: 1 << 12,
		Pool:    pmdk.Config{NVM: nvm.Config{Size: 4<<20 + int(keys)*256}, Tracker: trackers[1]},
	})
	if err != nil {
		return apps, err
	}
	ns, err := nstore.Open(nstore.Config{
		NVM:      nvm.Config{Size: 2<<20 + int(keys)*160},
		Tracker:  trackers[2],
		Capacity: keys,
	})
	if err != nil {
		return apps, err
	}
	apps[0], apps[1], apps[2] = memcacheApp{ms}, redisApp{db}, nstoreApp{ns}
	return apps, nil
}

type kvOp struct {
	app   uint8
	read  bool
	key   uint64 // global key: local*kvClients + client
	stamp uint64
}

type runtimeKV struct {
	apps     [kvApps]kvApp
	checkers [kvApps]*pmem.CheckerTracker
	timed    [kvApps]*timedTracker // traced instance only
	base     [kvApps]kvApp         // untracked copies, traced instance only
	ops      [kvClients][]kvOp
	// model[c][app][local] is client c's last written stamp.
	model [kvClients][kvApps][]uint64
	tr    *tracer

	// per-layer accumulators (traced instance)
	nOps   int64
	nvmAcc nvm.Stats
}

func setupRuntimeKV(o options, tr *tracer) (instance, error) {
	keys, opsPer := uint64(kvKeysPerClient), kvOpsPerClient
	if o.short {
		keys, opsPer = 256, 500
	}
	kv := &runtimeKV{tr: tr}
	var trackers [kvApps]pmem.Tracker
	for i := range trackers {
		kv.checkers[i] = pmem.NewCheckerTracker()
		trackers[i] = kv.checkers[i]
		if tr != nil {
			kv.timed[i] = &timedTracker{inner: kv.checkers[i]}
			trackers[i] = kv.timed[i]
		}
	}
	var err error
	if kv.apps, err = openKVApps(keys*kvClients, trackers); err != nil {
		return nil, err
	}
	if tr != nil {
		if kv.base, err = openKVApps(keys*kvClients, [kvApps]pmem.Tracker{}); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(o.seed*7919 + 17))
	for c := 0; c < kvClients; c++ {
		for a := 0; a < kvApps; a++ {
			kv.model[c][a] = make([]uint64, keys)
			for k := uint64(0); k < keys; k++ {
				stamp := rng.Uint64() | 1
				kv.model[c][a][k] = stamp
				g := k*kvClients + uint64(c)
				if err := kv.apps[a].set(0, g, stamp); err != nil {
					return nil, fmt.Errorf("preload %s key %d: %w", kvAppNames[a], g, err)
				}
				if tr != nil {
					if err := kv.base[a].set(0, g, stamp); err != nil {
						return nil, fmt.Errorf("preload base %s key %d: %w", kvAppNames[a], g, err)
					}
				}
			}
		}
		var gens [kvApps]*workload.Generator
		for a := range gens {
			g, err := workload.NewGenerator(workload.YCSBMixes()[0], keys, o.seed*7919+int64(c*kvApps+a)+1)
			if err != nil {
				return nil, err
			}
			gens[a] = g
		}
		ops := make([]kvOp, opsPer)
		for i := range ops {
			a := i % kvApps
			op := gens[a].Next()
			if op.Kind != workload.OpRead && op.Kind != workload.OpUpdate {
				return nil, fmt.Errorf("YCSB-A generated a %s op", op.Kind)
			}
			ops[i] = kvOp{
				app:   uint8(a),
				read:  op.Kind == workload.OpRead,
				key:   op.Key*kvClients + uint64(c),
				stamp: rng.Uint64() | 1,
			}
		}
		kv.ops[c] = ops
	}
	return kv, nil
}

func (kv *runtimeKV) round(rec *roundRec) error {
	var before [kvApps]nvm.Stats
	if kv.tr != nil {
		for a := range kv.apps {
			before[a] = kv.apps[a].pool().Stats()
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, kvClients)
	for c := 0; c < kvClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = kv.client(c, rec.client(c))
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if kv.tr != nil {
		for a := range kv.apps {
			s := kv.apps[a].pool().Stats()
			kv.nvmAcc.Fences += s.Fences - before[a].Fences
			kv.nvmAcc.LinesFlushed += s.LinesFlushed - before[a].LinesFlushed
			kv.nvmAcc.BytesWritten += s.BytesWritten - before[a].BytesWritten
		}
		kv.nOps += int64(kvClients * len(kv.ops[0]))
	}
	// The fixed apps are persistency-correct: the checker must stay
	// silent.  Its report is cumulative, so one look per round suffices.
	for a, ck := range kv.checkers {
		if ws := ck.C.Report().Warnings; len(ws) > 0 {
			rec.client(0).op(0, "checker", fmt.Sprintf("%s: dynamic checker warned on a correct app: %s", kvAppNames[a], ws[0]), false)
			return nil
		}
	}
	return nil
}

// client replays client c's op list, checking every read against the
// model.
func (kv *runtimeKV) client(c int, rec *clientRec) error {
	thread := int64(c + 1)
	model := &kv.model[c]
	for i := range kv.ops[c] {
		op := &kv.ops[c][i]
		app := kv.apps[op.app]
		local := op.key / kvClients
		var sp int32
		if kv.tr != nil {
			name := "apps.write"
			if op.read {
				name = "apps.read"
			}
			sp = kv.tr.start(name, -1)
		}
		t0 := time.Now()
		var err error
		var got uint64
		var ok bool
		if op.read {
			got, ok, err = app.get(thread, op.key)
		} else {
			err = app.set(thread, op.key, op.stamp)
		}
		lat := time.Since(t0)
		if kv.tr != nil {
			kv.tr.finish(sp)
		}
		if err != nil {
			return fmt.Errorf("%s key %d: %w", kvAppNames[op.app], op.key, err)
		}
		fail := ""
		if op.read {
			if want := model[op.app][local]; !ok || got != want {
				fail = fmt.Sprintf("%s get key %d = %#x (present %v), want %#x", kvAppNames[op.app], op.key, got, ok, want)
			}
			rec.op(lat, "r", fail, false)
		} else {
			model[op.app][local] = op.stamp
			rec.op(lat, "w", "", false)
		}
	}
	return nil
}

// baseRound replays the op lists against the untracked apps and returns
// the mean per-op latency.
func (kv *runtimeKV) baseRound() (time.Duration, error) {
	var wg sync.WaitGroup
	var sum [kvClients]time.Duration
	errs := make([]error, kvClients)
	for c := 0; c < kvClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			thread := int64(c + 1)
			for i := range kv.ops[c] {
				op := &kv.ops[c][i]
				t0 := time.Now()
				var err error
				if op.read {
					_, _, err = kv.base[op.app].get(thread, op.key)
				} else {
					err = kv.base[op.app].set(thread, op.key, op.stamp)
				}
				sum[c] += time.Since(t0)
				if err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	n := 0
	var total time.Duration
	for c := 0; c < kvClients; c++ {
		if errs[c] != nil {
			return 0, errs[c]
		}
		n += len(kv.ops[c])
		total += sum[c]
	}
	return total / time.Duration(n), nil
}

func (kv *runtimeKV) layers(plain, traced *phase) (map[string]float64, error) {
	// Untracked baseline: as many rounds as the traced phase ran, from
	// three to ten, median of the per-round means.
	rounds := len(traced.rounds)
	if rounds < 3 {
		rounds = 3
	}
	if rounds > 10 {
		rounds = 10
	}
	var base []float64
	for i := 0; i < rounds; i++ {
		d, err := kv.baseRound()
		if err != nil {
			return nil, err
		}
		base = append(base, float64(d))
	}
	baseNs := median(base)
	var meanPlain float64
	for _, l := range plain.lats {
		meanPlain += float64(l)
	}
	meanPlain /= float64(len(plain.lats))

	var events, trackNs int64
	for _, t := range kv.timed {
		e, ns := t.totals()
		events += e
		trackNs += ns
	}
	cells := 0
	for _, ck := range kv.checkers {
		cells += ck.C.StatsSnapshot().Cells
	}
	n := float64(kv.nOps)
	return map[string]float64{
		"apps.base_us_per_op":       baseNs / 1e3,
		"apps.read_p50_us":          pct(kv.tr.durations("apps.read"), 50) / 1e3,
		"apps.write_p50_us":         pct(kv.tr.durations("apps.write"), 50) / 1e3,
		"dynamic.tracker_us_per_op": float64(trackNs) / 1e3 / n,
		"dynamic.events_per_op":     float64(events) / n,
		"dynamic.overhead_pct":      100 * (meanPlain - baseNs) / baseNs,
		"dynamic.shadow_cells":      float64(cells),
		"nvm.fences_per_op":         float64(kv.nvmAcc.Fences) / n,
		"nvm.lines_flushed_per_op":  float64(kv.nvmAcc.LinesFlushed) / n,
		"nvm.bytes_written_per_op":  float64(kv.nvmAcc.BytesWritten) / n,
	}, nil
}

func (kv *runtimeKV) close() {}

// timedTracker wraps the dynamic checker's tracker, timing and counting
// every event.  Counters are per thread id (0 = preload, 1..2 =
// clients), so the clients never share one.
type timedTracker struct {
	inner pmem.Tracker
	slot  [kvClients + 1]struct {
		n, ns int64
		_     [48]byte // keep slots on separate cache lines
	}
}

func (t *timedTracker) add(thread int64, t0 time.Time) {
	s := &t.slot[thread]
	s.n++
	s.ns += int64(time.Since(t0))
}

func (t *timedTracker) Write(thread int64, addr uint64, fn string) {
	t0 := time.Now()
	t.inner.Write(thread, addr, fn)
	t.add(thread, t0)
}

func (t *timedTracker) Read(thread int64, addr uint64, fn string) {
	t0 := time.Now()
	t.inner.Read(thread, addr, fn)
	t.add(thread, t0)
}

func (t *timedTracker) Fence(thread int64) {
	t0 := time.Now()
	t.inner.Fence(thread)
	t.add(thread, t0)
}

func (t *timedTracker) Acquire(thread int64, lock any) {
	t0 := time.Now()
	t.inner.Acquire(thread, lock)
	t.add(thread, t0)
}

func (t *timedTracker) Release(thread int64, lock any) {
	t0 := time.Now()
	t.inner.Release(thread, lock)
	t.add(thread, t0)
}

// totals returns the client threads' event count and tracker time
// (preload excluded).  Call it only while no client runs.
func (t *timedTracker) totals() (events, ns int64) {
	for th := 1; th <= kvClients; th++ {
		events += t.slot[th].n
		ns += t.slot[th].ns
	}
	return events, ns
}
