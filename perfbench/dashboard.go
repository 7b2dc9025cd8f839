package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"webfountain"
	"webfountain/internal/metrics"
	"webfountain/internal/serve"
)

// dashboard-reads: an open loop of reads at a fixed rate, timed from each
// request's due time, over a pre-ingested multi-domain corpus served as
// wfserver serves it without a data directory (in-memory platform, batch
// mine, NewServingTier). Subjects are drawn Zipf-skewed over a key space
// larger than the 256-entry cache, and one ingest batch arrives at a
// fixed interval, invalidating the cache.
const (
	drPerDomain   = 300                    // pre-ingested documents per domain (1,500 in all)
	drRate        = 500                    // reads per second
	drRound       = 2 * time.Second        // one round of the read schedule
	drIngestEvery = 500 * time.Millisecond // one batch per interval
	drBatch       = 10
	drZipf        = 1.1
	drSetups      = 5
)

var drEndpoints = []string{"subjects", "overview", "sentiment", "trend", "aspects"}

// drState is one set-up serving stack.
type drState struct {
	platform *webfountain.Platform
	tier     *webfountain.ServingTier
	gw       http.Handler
	srv      *httptest.Server
	pre      []webfountain.Document
	stream   []webfountain.Document
	subjects []string // by mention count, most mentioned first
}

func drSetup(cfg config, gt *gatewayTrace) (*drState, error) {
	nRounds := int((cfg.seconds + drRound - 1) / drRound)
	perRound := int(drRound / drIngestEvery)
	streamDocs := nRounds * perRound * drBatch
	extra := (streamDocs + len(domains) - 1) / len(domains)
	all := multiDomain(cfg.seed, drPerDomain+extra)
	st := &drState{pre: all[:drPerDomain*len(domains)], stream: all[drPerDomain*len(domains):][:streamDocs]}

	st.platform = webfountain.NewPlatform(webfountain.PlatformConfig{})
	if _, err := st.platform.Ingest(st.pre); err != nil {
		return nil, err
	}
	m, err := webfountain.NewSentimentMiner(webfountain.MinerConfig{})
	if err != nil {
		return nil, err
	}
	facts, err := m.Run(st.platform)
	if err != nil {
		return nil, err
	}
	st.tier = webfountain.NewServingTier(st.platform, m, facts)
	var backend serve.Backend = st.tier
	if cfg.trace {
		backend = gt.backend(st.tier)
	}
	st.gw = serve.NewGateway(backend, siGatewayConfig())
	var h http.Handler = st.gw
	if cfg.trace {
		h = gt.wrap(h)
	}
	st.srv = httptest.NewServer(h)

	v := st.tier.View()
	st.subjects = append([]string(nil), v.Subjects()...)
	sort.SliceStable(st.subjects, func(i, j int) bool {
		return v.Counts(st.subjects[i]).Total() > v.Counts(st.subjects[j]).Total()
	})
	return st, nil
}

// spellings are the forms a subject is requested in. The gateway looks
// subjects up case-insensitively but caches by the raw query, so each
// spelling is its own cache entry. The generated corpora yield about 53
// subjects in named-entity mode however many documents they hold, so
// subject × endpoint alone (161 keys) would fit in the 256-entry cache.
func spellings(subject string) []string {
	title := strings.ToUpper(subject[:1]) + subject[1:]
	return []string{subject, title, strings.ToUpper(subject)}
}

// drKeys returns the request path of every key, for the end checks.
func drKeys(subjects []string) []string {
	keys := []string{"/api/subjects", "/api/overview"}
	for _, s := range subjects {
		for _, ep := range drEndpoints[2:] {
			for _, sp := range spellings(s) {
				keys = append(keys, "/api/"+ep+"?name="+url.QueryEscape(sp))
			}
		}
	}
	return keys
}

func runDashboard(cfg config) (*report, error) {
	rep := newReport()
	warm()
	gt := newGatewayTrace()
	var setups []float64
	var st *drState
	for i := 0; i < drSetups; i++ {
		if st != nil {
			st.srv.Close()
		}
		runtime.GC() // each set-up starts from the same heap
		t0 := time.Now()
		var err error
		if st, err = drSetup(cfg, gt); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.srv.Close()
	if n := len(drKeys(st.subjects)); n <= 256 {
		return nil, fmt.Errorf("dashboard-reads: key space %d fits in the 256-entry cache", n)
	}

	r := rand.New(rand.NewSource(cfg.seed))
	zipf := rand.NewZipf(r, drZipf, 1, uint64(len(st.subjects)-1))
	perRound := int(drRound.Seconds() * drRate)
	nRounds := int((cfg.seconds + drRound - 1) / drRound)
	// The whole schedule is drawn up front from the seed.
	type req struct {
		path string
		ep   string
	}
	sched := make([]req, perRound*nRounds)
	for i := range sched {
		ep := drEndpoints[r.Intn(len(drEndpoints))]
		p := "/api/" + ep
		if ep != "subjects" && ep != "overview" {
			sp := spellings(st.subjects[zipf.Uint64()])
			p += "?name=" + url.QueryEscape(sp[r.Intn(len(sp))])
		}
		sched[i] = req{p, ep}
	}

	readClient, ingestClient := newHTTPClient(), newHTTPClient()
	var lastAcked atomic.Uint64
	lastAcked.Store(st.tier.View().Generation())
	var reads, traced, plain, lag, service samples
	var acks samples
	var ingested []webfountain.Document
	var freshErr error
	d := newDelta()
	tracedDocs := 0
	var ru0, ru1 syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	tenant := 0
	for round := 0; round < nRounds; round++ {
		tr := cfg.trace && round%2 == 1
		gt.on.Store(tr)
		var before metrics.Snapshot
		if tr {
			before = local()
		}
		runtime.GC() // each round starts from the same heap
		start := time.Now()
		var wg sync.WaitGroup
		var ingestErr error
		batch := st.stream[round*int(drRound/drIngestEvery)*drBatch:][:int(drRound/drIngestEvery)*drBatch]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j, b := range batches(batch, drBatch) {
				due := start.Add(time.Duration(j) * drIngestEvery)
				time.Sleep(time.Until(due))
				body, err := json.Marshal(struct {
					Docs []serve.Doc `json:"docs"`
				}{docsOf(b)})
				if err != nil {
					ingestErr = err
					return
				}
				sent := time.Now()
				data, err := call(ingestClient, http.MethodPost, st.srv.URL+"/api/ingest", tenants[(round*97+j)%len(tenants)], body)
				if err != nil {
					ingestErr = err
					return
				}
				acks.add(time.Since(sent))
				var ack ingestAck
				if err := json.Unmarshal(data, &ack); err != nil {
					ingestErr = err
					return
				}
				lastAcked.Store(ack.Generation)
			}
		}()
		var roundLat samples
		for i := 0; i < perRound; i++ {
			q := sched[round*perRound+i]
			due := start.Add(time.Duration(i) * time.Second / drRate)
			sleepUntil(due)
			sent := time.Now()
			lag.add(sent.Sub(due))
			acked := lastAcked.Load()
			rep.op("read").attempted++
			data, err := call(readClient, http.MethodGet, st.srv.URL+q.path, tenants[tenant%len(tenants)], nil)
			tenant++
			if err != nil {
				wg.Wait()
				return nil, fmt.Errorf("dashboard-reads: %w", err)
			}
			roundLat.add(time.Since(due))
			service.add(time.Since(sent))
			if q.ep == "overview" && freshErr == nil {
				var ov overview
				if err := json.Unmarshal(data, &ov); err != nil {
					freshErr = err
				} else {
					freshErr = checkFresh(ov.Generation, acked)
				}
			}
		}
		wg.Wait()
		if ingestErr != nil {
			return nil, fmt.Errorf("dashboard-reads: ingest: %w", ingestErr)
		}
		rep.op("ingest").attempted += len(batch) / drBatch
		ingested = append(ingested, batch...)
		if tr {
			d.addDiff(before, local())
			tracedDocs += len(batch)
			traced = append(traced, roundLat...)
		} else {
			plain = append(plain, roundLat...)
		}
		reads = append(reads, roundLat...)
	}
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	cpu := tv(ru1.Utime) + tv(ru1.Stime) - tv(ru0.Utime) - tv(ru0.Stime)
	rep.check("dashboard-reads: overview generation vs last ack before the request", freshErr)

	e2eSet(rep, setups, float64(len(reads))/cpu, reads)
	rep.named["read_p50_us"] = us(reads.pct(50))
	tail(rep, "read_p99_us", reads)
	rep.named["ingest_ack_p50_ms"] = ms(acks.pct(50) / 1e3)
	tail(rep, "generator_lag_p99_us", lag)
	rep.named["generator_lag_p50_us"] = us(lag.pct(50))
	rep.named["read_service_p50_us"] = us(service.pct(50))
	tail(rep, "read_service_p99_us", service)
	rep.named["reads_per_cpu_s"] = per(float64(len(reads)) / cpu)
	rep.notes = append(rep.notes, fmt.Sprintf(
		"load: open loop %d reads/s from 1 goroutine + 1 ingest goroutine (%d batches of %d every %v); %d keys, %d subjects, Zipf s=%.1f; %d tenants",
		drRate, int(drRound/drIngestEvery)*nRounds, drBatch, drIngestEvery, len(drKeys(st.subjects)), len(st.subjects), drZipf, len(tenants)))

	dashboardChecks(rep, st, append(append([]webfountain.Document(nil), st.pre...), ingested...))
	if cfg.trace {
		gt.layers(rep)
		pipelineLayers(rep, d, float64(tracedDocs))
		apply := drApplyUs(st.pre, ingested)
		setLayer(rep, "serve.aggregates.apply_us_per_batch", apply)
		servingRemainder(rep, d, float64(tracedDocs/drBatch), apply)
		setLayer(rep, "generator.lag_p99_us", lag.pct(99))
		gt.mu.Lock()
		var handler samples
		for _, ep := range drEndpoints {
			if h := gt.handler[ep]; h != nil {
				handler = append(handler, *h...)
			}
		}
		gt.mu.Unlock()
		setLayer(rep, "unaccounted.us_per_op", traced.mean()-handler.mean())
		setLayer(rep, "trace.overhead_p50_pct", overhead(traced, plain))
		fillLayers(rep)
	}
	return rep, nil
}

// sleepUntil blocks until t. It sleeps in the kernel rather than on a
// Go timer: the runtime's timers wake up to a millisecond late, which
// would make the open loop's own lateness the largest part of a read's
// latency from its due time.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

func docsOf(ds []webfountain.Document) []serve.Doc {
	out := make([]serve.Doc, len(ds))
	for i, d := range ds {
		out[i] = toServe(d)
	}
	return out
}

// drApplyUs times Apply of the streamed batches on top of aggregates
// already holding the pre-ingested corpus, as the live tier applies them.
func drApplyUs(pre, stream []webfountain.Document) float64 {
	m, _ := webfountain.NewSentimentMiner(webfountain.MinerConfig{}) // cannot fail: no extra resources
	agg := serve.NewAggregates()
	var all []serve.Fact
	for _, d := range pre {
		all = append(all, datedFacts(m, d)...)
	}
	agg.Apply(all)
	var s samples
	for _, b := range batches(stream, drBatch) {
		var facts []serve.Fact
		for _, d := range b {
			facts = append(facts, datedFacts(m, d)...)
		}
		t := time.Now()
		agg.Apply(facts)
		s.add(time.Since(t))
	}
	return s.mean()
}

// dashboardChecks compares the served state with the reference fold,
// and every cached body with a cache-disabled render over the same tier.
func dashboardChecks(rep *report, st *drState, docs []webfountain.Document) {
	m, err := webfountain.NewSentimentMiner(webfountain.MinerConfig{})
	if err != nil {
		rep.fail("dashboard-reads: reference miner: %v", err)
		return
	}
	var facts []serve.Fact
	var entries []factKey
	dated := map[string]int{}
	for _, d := range docs {
		for _, f := range m.AnalyzeText(d.Text) {
			facts = append(facts, serve.Fact{Subject: f.Subject, Feature: f.Feature, Date: d.Date, Positive: f.Polarity == webfountain.Positive})
			entries = append(entries, factKey{d.ID, f.Sentence, strings.ToLower(f.Subject), int(f.Polarity), f.Feature})
			if len(d.Date) >= 7 {
				dated[strings.ToLower(f.Subject)]++
			}
		}
	}
	v := st.tier.View()
	rep.check("dashboard-reads: aggregates vs reference fold", checkView(v, referenceView([][]serve.Fact{facts})))
	rep.check("dashboard-reads: month buckets", checkMonthSums(v, func(s string) int { return dated[s] }))
	var served []factKey
	for _, s := range v.Subjects() {
		for _, e := range st.tier.Entries(context.Background(), s) {
			served = append(served, factKey{e.Doc, e.Sentence, strings.ToLower(e.Subject), polarityOf(e.Polarity), e.Feature})
		}
	}
	rep.check("dashboard-reads: sentiment entries vs reference mine", checkMultiset("entries", served, entries))

	// Every key twice through the cached gateway (the second answer is a
	// cache hit) and once through a cache-disabled gateway.
	nocache := serve.NewGateway(st.tier, serve.GatewayConfig{CacheEntries: -1, TenantRate: 50, TenantBurst: 100})
	get := func(h http.Handler, key string, tenant string) (*httptest.ResponseRecorder, error) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, key, nil)
		req.Header.Set("x-tenant", tenant)
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return rec, fmt.Errorf("%s: %d %s", key, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		return rec, nil
	}
	for i, key := range drKeys(st.subjects) {
		tenant := tenants[i%len(tenants)]
		if _, err := get(st.gw, key, tenant); err != nil {
			rep.fail("dashboard-reads: %v", err)
			return
		}
		cached, err := get(st.gw, key, tenant)
		if err != nil {
			rep.fail("dashboard-reads: %v", err)
			return
		}
		if cached.Header().Get("X-Cache") != "hit" {
			rep.fail("dashboard-reads: %s: second read was not a cache hit", key)
		}
		fresh, err := get(nocache, key, tenant)
		if err != nil {
			rep.fail("dashboard-reads: %v", err)
			return
		}
		rep.check("dashboard-reads: cached body", checkCachedBody(key, cached.Body.Bytes(), fresh.Body.Bytes()))
	}
}

// polarityOf inverts Polarity.String for served entries.
func polarityOf(s string) int {
	switch s {
	case "+":
		return int(webfountain.Positive)
	case "-":
		return int(webfountain.Negative)
	}
	return int(webfountain.Neutral)
}
