package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"webfountain"
	"webfountain/internal/corpus"
	"webfountain/internal/index"
	"webfountain/internal/metrics"
	"webfountain/internal/services"
	"webfountain/internal/store"
	"webfountain/internal/tokenize"
	"webfountain/internal/vinci"
)

// routed-w2: wfrouter at W=2, R=1 with its default flags in front of
// three wfnode processes built from the tree, over loopback TCP. Two
// closed-loop clients issue puts, gets and searches through the router;
// at the end of each round they issue a few routed sentiment queries.
const (
	rwPerDomain = 100 // seeded documents per non-camera domain
	rwProbeDocs = 40  // fixed camera documents the sentiment queries cover
	rwSetups    = 5
	rwClients   = 2
	// Per client per round.
	rwPuts, rwGets, rwSearches = 60, 120, 12
)

// rwSubjects are the sentiment query subjects, each queried once per
// round: each is mentioned with sentiment in the fixed probe documents,
// so its reference answer is never empty.
var rwSubjects = []string{"fuji", "stylus", "powershot", "kodak"}

// rwFault names the program fault that fails every routed sentiment
// query.
const rwFault = "routed puts never reach a node's sentiment index: services.RegisterSentiment serves an index that StoreHooks.OnPut never writes (cmd/wfnode, distributed.go buildNode)"

// cluster is one running wfrouter + wfnode deployment.
type cluster struct {
	procs       []*exec.Cmd
	nodeAddrs   []string
	nodeMetrics []string
	router      string
	routerMet   string
}

// stop kills every process and waits for each to end.
func (c *cluster) stop() {
	for _, p := range c.procs {
		p.Process.Kill()
	}
	for _, p := range c.procs {
		p.Wait()
	}
	c.procs = nil
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// waitVinci dials addr until its health service answers.
func waitVinci(addr string, deadline time.Time) error {
	for {
		c, err := vinci.DialWith(addr, vinci.DialOptions{CallTimeout: time.Second, DialTimeout: time.Second})
		if err == nil {
			err = services.HealthClient{C: c}.Ping()
			c.Close()
			if err == nil {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready: %w", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func startCluster(cfg config, n int) (*cluster, error) {
	c := &cluster{}
	start := func(log string, name string, args ...string) error {
		f, err := os.Create(filepath.Join(cfg.work, log))
		if err != nil {
			return err
		}
		defer f.Close()
		cmd := exec.Command(filepath.Join(cfg.bin, name), args...)
		cmd.Stdout, cmd.Stderr = f, f
		// The processes die with the benchmark, even if it is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("start %s: %w", name, err)
		}
		c.procs = append(c.procs, cmd)
		return nil
	}
	var members []string
	for i := 0; i < 3; i++ {
		addr, err := freePort()
		if err != nil {
			return nil, err
		}
		met, err := freePort()
		if err != nil {
			return nil, err
		}
		if err := start(fmt.Sprintf("wfnode-%d-%d.log", n, i), "wfnode", "-listen", addr, "-docs", "0", "-metrics-addr", met); err != nil {
			c.stop()
			return nil, err
		}
		c.nodeAddrs = append(c.nodeAddrs, addr)
		c.nodeMetrics = append(c.nodeMetrics, met)
		members = append(members, fmt.Sprintf("n%d=%s", i+1, addr))
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, a := range c.nodeAddrs {
		if err := waitVinci(a, deadline); err != nil {
			c.stop()
			return nil, err
		}
	}
	var err error
	if c.router, err = freePort(); err != nil {
		c.stop()
		return nil, err
	}
	if c.routerMet, err = freePort(); err != nil {
		c.stop()
		return nil, err
	}
	if err := start(fmt.Sprintf("wfrouter-%d.log", n), "wfrouter", "-listen", c.router, "-nodes", strings.Join(members, ","), "-metrics-addr", c.routerMet); err != nil {
		c.stop()
		return nil, err
	}
	if err := waitVinci(c.router, deadline); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// rwDocs returns the routed corpus: seeded documents of four domains and
// the fixed camera probe documents, which do not depend on the seed.
func rwDocs(seed int64) []webfountain.Document {
	var out []webfountain.Document
	for i, d := range []string{"music", "petroleum", "pharma", "news"} {
		for _, g := range generate(d, seed*101+int64(i), rwPerDomain) {
			out = append(out, toDoc(g))
		}
	}
	for _, g := range corpus.DigitalCameraReviews(1, rwProbeDocs) {
		d := toDoc(g)
		d.ID = "probe-" + d.ID
		out = append(out, d)
	}
	return out
}

func entityOf(d webfountain.Document) *store.Entity {
	return &store.Entity{ID: d.ID, Source: d.Source, Title: d.Title, Date: d.Date, Text: d.Text}
}

// rwOp is one client operation.
type rwOp struct {
	kind  string // put, get, search
	doc   int
	terms []string
}

// rwPlan draws each client's operations for one round from the seed.
// Client c puts and gets only documents whose index is c modulo the
// client count, so what a get may see does not depend on timing.
func rwPlan(seed int64, docs []webfountain.Document) [][]rwOp {
	r := rand.New(rand.NewSource(seed))
	tk := tokenize.New()
	plans := make([][]rwOp, rwClients)
	for c := range plans {
		var mine []int
		for i := c; i < len(docs); i += rwClients {
			mine = append(mine, i)
		}
		var ops []rwOp
		for i := 0; i < rwPuts; i++ {
			ops = append(ops, rwOp{kind: "put", doc: mine[r.Intn(len(mine))]})
		}
		for i := 0; i < rwGets; i++ {
			ops = append(ops, rwOp{kind: "get", doc: mine[r.Intn(len(mine))]})
		}
		for i := 0; i < rwSearches; i++ {
			var words []string
			for _, t := range tk.Tokenize(docs[r.Intn(len(docs))].Text) {
				if len(t.Text) >= 4 && strings.IndexFunc(t.Text, func(c rune) bool { return c < 'a' || c > 'z' }) < 0 {
					words = append(words, t.Text)
				}
			}
			terms := []string{words[r.Intn(len(words))]}
			if r.Intn(2) == 0 {
				terms = append(terms, words[r.Intn(len(words))])
			}
			ops = append(ops, rwOp{kind: "search", terms: terms})
		}
		r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		plans[c] = ops
	}
	return plans
}

// rwClient is one closed-loop client's connection and its record.
type rwClient struct {
	c        vinci.Client
	lat      map[string]*samples
	round    samples // this round's put and get latencies
	searches []rwSearch
	answers  []rwAnswer
	err      error
}

type rwSearch struct {
	terms []string
	ids   []string
}

type rwAnswer struct {
	subject string
	entries []index.SentimentEntry
}

func (cl *rwClient) record(kind string, d time.Duration) {
	if cl.lat[kind] == nil {
		cl.lat[kind] = &samples{}
	}
	cl.lat[kind].add(d)
	if kind == "put" || kind == "get" {
		cl.round.add(d)
	}
}

// run executes one round's operations; a failed call stops the client.
func (cl *rwClient) run(ops []rwOp, docs []webfountain.Document) {
	sc := services.StoreClient{C: cl.c}
	for _, op := range ops {
		t := time.Now()
		switch op.kind {
		case "put":
			if err := sc.Put(entityOf(docs[op.doc])); err != nil {
				cl.err = fmt.Errorf("put %s: %w", docs[op.doc].ID, err)
				return
			}
		case "get":
			e, err := sc.Get(docs[op.doc].ID)
			if err != nil {
				cl.err = fmt.Errorf("get %s: %w", docs[op.doc].ID, err)
				return
			}
			if e.Text != docs[op.doc].Text || e.Date != docs[op.doc].Date {
				cl.err = fmt.Errorf("get %s: routed read differs from the acked document", docs[op.doc].ID)
				return
			}
		case "search":
			ids, err := services.IndexClient{C: cl.c}.Search("all", op.terms...)
			if err != nil {
				cl.err = fmt.Errorf("search %v: %w", op.terms, err)
				return
			}
			cl.searches = append(cl.searches, rwSearch{op.terms, ids})
		}
		cl.record(op.kind, time.Since(t))
	}
}

// sentiment issues the round's sentiment queries.
func (cl *rwClient) sentiment(subjects []string) {
	for _, s := range subjects {
		t := time.Now()
		entries, err := services.SentimentClient{C: cl.c}.Query(s)
		if err != nil {
			cl.err = fmt.Errorf("sentiment %s: %w", s, err)
			return
		}
		cl.record("sentiment", time.Since(t))
		cl.answers = append(cl.answers, rwAnswer{s, entries})
	}
}

func runRouted(cfg config) (*report, error) {
	rep := newReport()
	warm()
	docs := rwDocs(cfg.seed)
	var setups []float64
	var cl *cluster
	for i := 0; i < rwSetups; i++ {
		if cl != nil {
			cl.stop()
		}
		t0 := time.Now()
		var err error
		if cl, err = startCluster(cfg, i); err != nil {
			return nil, fmt.Errorf("routed-w2: %w", err)
		}
		if err := preload(cl.router, docs); err != nil {
			cl.stop()
			return nil, fmt.Errorf("routed-w2: preload: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer cl.stop()

	plans := rwPlan(cfg.seed, docs)
	var on atomic.Bool
	var mu sync.Mutex
	byOp := map[string]*samples{}
	clients := make([]*rwClient, rwClients)
	for i := range clients {
		c, err := vinci.DialWith(cl.router, vinci.DialOptions{CallTimeout: 10 * time.Second})
		if err != nil {
			return nil, fmt.Errorf("routed-w2: dial router: %w", err)
		}
		defer c.Close()
		if cfg.trace {
			c = tracedClient{Client: c, on: &on, mu: &mu, by: byOp}
		}
		clients[i] = &rwClient{c: c, lat: map[string]*samples{}}
	}

	hc := &http.Client{Timeout: 10 * time.Second}
	routerD, nodesD := newDelta(), newDelta()
	var wall time.Duration
	var mainOps int
	var traced, plain samples
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < cfg.seconds; round++ {
		tr := cfg.trace && round%2 == 1
		var rb metrics.Snapshot
		var nb []metrics.Snapshot
		if tr {
			var err error
			if rb, nb, err = clusterSnapshots(hc, cl); err != nil {
				return nil, err
			}
		}
		on.Store(tr)
		for _, c := range clients {
			c.round = c.round[:0]
		}
		t := time.Now()
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func(c *rwClient, ops []rwOp) {
				defer wg.Done()
				c.run(ops, docs)
			}(c, plans[i])
		}
		wg.Wait()
		wall += time.Since(t)
		for _, c := range clients {
			if c.err != nil {
				return nil, fmt.Errorf("routed-w2: %w", c.err)
			}
		}
		on.Store(false)
		if tr {
			ra, na, err := clusterSnapshots(hc, cl)
			if err != nil {
				return nil, err
			}
			routerD.addDiff(rb, ra)
			for i := range na {
				nodesD.addDiff(nb[i], na[i])
			}
		}
		for _, c := range clients {
			if tr {
				traced = append(traced, c.round...)
			} else {
				plain = append(plain, c.round...)
			}
		}
		mainOps += rwClients * (rwPuts + rwGets + rwSearches)
		rep.op("put").attempted += rwClients * rwPuts
		rep.op("get").attempted += rwClients * rwGets
		rep.op("search").attempted += rwClients * rwSearches

		// The sentiment phase, outside the timed part of the round.
		for i, c := range clients {
			wg.Add(1)
			go func(c *rwClient, i int) {
				defer wg.Done()
				n := len(rwSubjects)
				c.sentiment(rwSubjects[i*n/rwClients : (i+1)*n/rwClients])
			}(c, i)
		}
		wg.Wait()
		for _, c := range clients {
			if c.err != nil {
				return nil, fmt.Errorf("routed-w2: %w", c.err)
			}
		}
		rep.op("sentiment").attempted += len(rwSubjects)
	}
	res := rwResult{setups: setups, wall: wall, mainOps: mainOps, router: routerD, nodes: nodesD,
		byOp: byOp, traced: traced, plain: plain}
	return rep, routedFinish(cfg, rep, cl, docs, clients, res)
}

// preload puts every document through the router once, before timing.
func preload(router string, docs []webfountain.Document) error {
	c, err := vinci.DialWith(router, vinci.DialOptions{CallTimeout: 10 * time.Second})
	if err != nil {
		return err
	}
	defer c.Close()
	sc := services.StoreClient{C: c}
	for _, d := range docs {
		if err := sc.Put(entityOf(d)); err != nil {
			return fmt.Errorf("put %s: %w", d.ID, err)
		}
	}
	return nil
}

// clusterSnapshots fetches the router's and each node's metrics.
func clusterSnapshots(hc *http.Client, cl *cluster) (metrics.Snapshot, []metrics.Snapshot, error) {
	r, err := remote(hc, cl.routerMet)
	if err != nil {
		return r, nil, fmt.Errorf("routed-w2: router metrics: %w", err)
	}
	var nodes []metrics.Snapshot
	for _, a := range cl.nodeMetrics {
		s, err := remote(hc, a)
		if err != nil {
			return r, nil, fmt.Errorf("routed-w2: node metrics: %w", err)
		}
		nodes = append(nodes, s)
	}
	return r, nodes, nil
}

// rwResult is what the rounds measured.
type rwResult struct {
	setups        []float64
	wall          time.Duration
	mainOps       int
	router, nodes delta // registry changes over the traced rounds
	byOp          map[string]*samples
	traced, plain samples
}

// sentimentKey is a routed or reference sentiment entry as compared:
// wfnode's entries carry no feature, so the feature is left out.
func sentimentKey(doc string, sentence int, subject string, polarity int) factKey {
	return factKey{Doc: doc, Sentence: sentence, Subject: strings.ToLower(subject), Polarity: polarity}
}

// routedFinish checks the routed state against references and reports.
func routedFinish(cfg config, rep *report, cl *cluster, docs []webfountain.Document, clients []*rwClient, res rwResult) error {
	lat := map[string]samples{}
	for _, c := range clients {
		for k, s := range c.lat {
			lat[k] = append(lat[k], *s...)
		}
	}
	putget := append(append(samples(nil), lat["put"]...), lat["get"]...)
	e2eSet(rep, res.setups, float64(res.mainOps)/res.wall.Seconds(), putget)
	for _, k := range []string{"put", "get"} {
		rep.named["routed_"+k+"_p50_us"] = us(lat[k].pct(50))
		tail(rep, "routed_"+k+"_p99_us", lat[k])
	}
	rep.named["routed_search_p50_us"] = us(lat["search"].pct(50))
	rep.named["routed_sentiment_p50_us"] = us(lat["sentiment"].pct(50))
	rep.notes = append(rep.notes, fmt.Sprintf("load: %d closed-loop clients, one router connection each; per round %d puts, %d gets, %d searches, then %d sentiment queries; %d documents (%d fixed probe documents)",
		rwClients, rwClients*rwPuts, rwClients*rwGets, rwClients*rwSearches, len(rwSubjects), len(docs), rwProbeDocs))

	// Searches against a single-node index over the same documents,
	// built the way wfnode indexes a routed put.
	ix := index.New()
	tk := tokenize.New()
	for _, d := range docs {
		toks := tk.Tokenize(d.Text)
		words := make([]string, len(toks))
		for i, t := range toks {
			words[i] = t.Text
		}
		ix.Add(d.ID, words)
	}
	for _, c := range clients {
		for _, s := range c.searches {
			qs := make([]index.Query, len(s.terms))
			for i, t := range s.terms {
				qs[i] = index.Term(t)
			}
			if err := checkIDs(fmt.Sprintf("search %v", s.terms), s.ids, ix.Search(index.And(qs...))); err != nil {
				rep.fail("routed-w2: %v", err)
				break
			}
		}
	}

	// Every acked put reads back through the router and directly from
	// at least two nodes.
	rc, err := vinci.DialWith(cl.router, vinci.DialOptions{CallTimeout: 10 * time.Second})
	if err != nil {
		return err
	}
	defer rc.Close()
	var nodes []vinci.Client
	for _, a := range cl.nodeAddrs {
		nc, err := vinci.DialWith(a, vinci.DialOptions{CallTimeout: 10 * time.Second})
		if err != nil {
			return err
		}
		defer nc.Close()
		nodes = append(nodes, nc)
	}
	for _, d := range docs {
		e, err := services.StoreClient{C: rc}.Get(d.ID)
		if err != nil || e.Text != d.Text || e.Date != d.Date {
			rep.fail("routed-w2: %s does not read back through the router (%v)", d.ID, err)
			continue
		}
		texts := map[string]string{}
		for i, nc := range nodes {
			if e, err := (services.StoreClient{C: nc}).Get(d.ID); err == nil {
				texts[cl.nodeAddrs[i]] = e.Text
			}
		}
		rep.check("routed-w2: replicas", checkReplicas(d.ID, d.Text, texts, 2))
	}

	// Sentiment queries against an offline single-node mine of the same
	// documents.
	p := webfountain.NewPlatform(webfountain.PlatformConfig{})
	if _, err := p.Ingest(docs); err != nil {
		return err
	}
	m, err := webfountain.NewSentimentMiner(webfountain.MinerConfig{})
	if err != nil {
		return err
	}
	if _, err := m.Run(p); err != nil {
		return err
	}
	want := map[string][]factKey{}
	for _, s := range rwSubjects {
		for _, f := range m.Query(s) {
			want[s] = append(want[s], sentimentKey(f.DocID, f.Sentence, f.Subject, int(f.Polarity)))
		}
		if len(want[s]) == 0 {
			rep.fail("routed-w2: reference mine has no entry for probe subject %q", s)
		}
	}
	op := rep.op("sentiment")
	op.fault = rwFault
	var recall []float64
	for _, c := range clients {
		for _, a := range c.answers {
			var got []factKey
			for _, e := range a.entries {
				got = append(got, sentimentKey(e.DocID, e.Sentence, e.Subject, e.Polarity))
			}
			if checkMultiset("sentiment "+a.subject, got, want[a.subject]) != nil {
				op.failed++
			}
			recall = append(recall, sentimentRecall(got, want[a.subject]))
		}
	}

	if cfg.trace {
		routedLayers(rep, res, lat, recall)
	}
	return nil
}

// sentimentRecall is the share of reference entries an answer returned.
func sentimentRecall(got, want []factKey) float64 {
	have := map[factKey]int{}
	for _, k := range got {
		have[k]++
	}
	hit := 0
	for _, k := range want {
		if have[k] > 0 {
			have[k]--
			hit++
		}
	}
	return ratio(float64(hit), float64(len(want)))
}

// routedLayers reports the traced routed-w2 run: the benchmark's own
// client times against wfrouter's server- and client-side histograms
// and wfnode's server-side histograms.
func routedLayers(rep *report, res rwResult, lat map[string]samples, recall []float64) {
	put, get := res.byOp["store.put"], res.byOp["store.get"]
	if put == nil || get == nil {
		rep.fail("routed-w2: traced run recorded no puts or gets")
		return
	}
	r, n := res.router, res.nodes
	setLayer(rep, "router.calls_per_put", ratio(r.c("vinci.client.store.put.calls"), float64(len(*put))))
	setLayer(rep, "router.hedges_per_get", ratio(r.c("vinci.client.hedges"), float64(len(*get))))
	setLayer(rep, "router.sentiment.us_per_query", lat["sentiment"].mean())
	setLayer(rep, "router.sentiment.recall", median(recall))
	setLayer(rep, "vinci.edge.put_us", put.mean()-r.meanUs("vinci.server.store.put.ns"))
	setLayer(rep, "vinci.edge.get_us", get.mean()-r.meanUs("vinci.server.store.get.ns"))
	setLayer(rep, "vinci.client.store_put_us", r.meanUs("vinci.client.store.put.ns"))
	setLayer(rep, "vinci.client.store_get_us", r.meanUs("vinci.client.store.get.ns"))
	setLayer(rep, "vinci.server.store_put_us", n.meanUs("vinci.server.store.put.ns"))
	setLayer(rep, "vinci.server.store_get_us", n.meanUs("vinci.server.store.get.ns"))
	pipelineLayers(rep, n, float64(len(*put)))
	// The router's own share of a routed call: its server-side time less
	// the time of its (parallel) calls to the nodes.
	np, ng := r.n("vinci.server.store.put.ns"), r.n("vinci.server.store.get.ns")
	own := ratio(np*(r.meanUs("vinci.server.store.put.ns")-r.meanUs("vinci.client.store.put.ns"))+
		ng*(r.meanUs("vinci.server.store.get.ns")-r.meanUs("vinci.client.store.get.ns")), np+ng)
	setLayer(rep, "unaccounted.us_per_op", own)
	setLayer(rep, "trace.overhead_p50_pct", overhead(res.traced, res.plain))
	fillLayers(rep)
}
