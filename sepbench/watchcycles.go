package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"repro/internal/obs"
	"repro/internal/verifysys"
	"repro/internal/watch"
)

// watchCycles runs back-to-back sepwatch cycles over the spec-based
// deployment registry while a second goroutine reads /status beside them.
// A pass is one session: a fresh watch directory and sessionCycles cycles.
// Eight cycles give every ledger eight records, so each session's re-reads
// (Head, LoadTrace, Status) cover ledgers of 0 to 8 records, and a pass is
// the same work however fast the machine is.
//
// Scrapes follow the write path: the watcher's event log gets one line
// right after each ledger append (what `sepwatch serve -log` writes), and
// each such line makes one /status scrape due at once, like a dashboard
// that refreshes on every ledger event. A cycle therefore carries exactly
// one scrape per deployment whatever its speed. The scraper is open loop:
// the writer never waits for it, and each scrape is timed from its due
// time, so a scraper that falls behind shows as latency.
//
// Checking runs at the watcher's default budget (10 trials x 100 steps),
// which catches every planted leak; the smaller watch-smoke budget
// (3 x 50) misses at least one leak for most seeds.
type watchCycles struct {
	seed     int64
	dir      string
	build    watch.BuildInfo
	deploys  []watch.Deployment
	sessions int
}

const sessionCycles = 8

// scrape is one /status request: how late it started after its due time,
// its latency from that due time, the ledger records it reported and
// whether the response passed the checks.
type scrape struct {
	late, latency time.Duration
	records       int
	err           error
}

// due is one scrape made due by a ledger append: when, in which cycle of
// the session, and how many records the session had appended by then.
type due struct {
	at       time.Time
	cycle    int
	appended int
}

// appendEvents is the watcher's event log. It runs on the cycle goroutine;
// each line naming an appended record makes one scrape due.
type appendEvents struct {
	cycle, appended int
	dues            chan<- due
}

func (e *appendEvents) Write(p []byte) (int, error) {
	var ev struct {
		Record string `json:"record"`
	}
	if json.Unmarshal(p, &ev) == nil && ev.Record != "" {
		e.appended++
		e.dues <- due{at: time.Now(), cycle: e.cycle, appended: e.appended}
	}
	return len(p), nil
}

func (w *watchCycles) setup(dir string) error {
	w.dir = dir
	w.deploys = watch.Deployments()
	w.build = watch.CurrentBuild("sepbench")
	for _, d := range w.deploys {
		if _, err := verifysys.FromSpec(d.Spec); err != nil {
			return fmt.Errorf("%s: %w", d.Name, err)
		}
	}
	_, err := w.watcher(0, nil).Status()
	return err
}

// watcher starts a session in a fresh directory.
func (w *watchCycles) watcher(seed int64, log io.Writer) *watch.Watcher {
	w.sessions++
	return watch.New(watch.Config{
		Dir: filepath.Join(w.dir, fmt.Sprint("session-", w.sessions)), Seed: seed,
		TraceSteps: 120, Workers: 1,
		Build: w.build, Metrics: obs.NewRegistry(), Log: log,
	})
}

func (w *watchCycles) warmup() { w.session(-1, 2, nil) }

func (w *watchCycles) pass(p int, sp *spans) []job {
	return w.session(p, sessionCycles, sp)
}

// session runs cycles cycles in a fresh watch directory with the scraper
// beside them, then checks the ledgers. Each cycle is one job and owns the
// scrapes its appends made due.
func (w *watchCycles) session(p, cycles int, sp *spans) []job {
	dues := make(chan due, cycles*len(w.deploys))
	ev := &appendEvents{dues: dues}
	wt := w.watcher(deriveSeed(w.seed, p), ev)
	scrapes := make([][]scrape, cycles)
	done := make(chan struct{})
	go func() {
		defer close(done)
		h := wt.StatusHandler()
		for d := range dues {
			s := scrape{late: time.Since(d.at)}
			s.records, s.err = w.scrapeOnce(h, d.appended)
			s.latency = time.Since(d.at)
			scrapes[d.cycle] = append(scrapes[d.cycle], s)
		}
	}()

	reg := wt.Config().Metrics
	trialSeconds := func() float64 {
		return reg.Histogram("sep_trial_seconds", nil).Sum()
	}
	jobs := make([]job, 0, cycles)
	for c := 0; c < cycles; c++ {
		ev.cycle = c
		var trial0 float64
		if c > 0 {
			trial0 = trialSeconds()
		}
		j := timeJob(func(*job) error {
			cr := wt.RunCycle()
			if cr.Errors > 0 || cr.Drift > 0 || cr.VerdictFlips > 0 || cr.Deployments != len(w.deploys) {
				return fmt.Errorf("cycle %d: %d deployments, %d errors, %d drift, %d verdict flips",
					cr.Cycle, cr.Deployments, cr.Errors, cr.Drift, cr.VerdictFlips)
			}
			return nil
		})
		j.kind = c
		if sp != nil {
			trial := time.Duration((trialSeconds() - trial0) * float64(time.Second))
			sp.n[cTrialNs] += int64(trial)
			sp.n[cCycleSelfNs] += int64(j.dur - trial)
		}
		jobs = append(jobs, j)
	}
	close(dues)
	<-done
	for c := range jobs {
		jobs[c].scrapes = scrapes[c]
		if n := len(scrapes[c]); n != len(w.deploys) && jobs[c].err == nil {
			jobs[c].err = fmt.Errorf("cycle %d made %d scrapes due, want %d", c+1, n, len(w.deploys))
		}
	}
	w.checkLedgers(wt.Config().Dir, jobs, sp)
	return jobs
}

// checkLedgers reads every deployment's ledger back: one record per cycle,
// each with the expected verdict and no drift. Checks and fingerprints are
// taken from the records; a bad record fails its cycle's job.
func (w *watchCycles) checkLedgers(dir string, jobs []job, sp *spans) {
	for _, d := range w.deploys {
		led, err := watch.OpenLedger(dir, d.Name)
		var recs []*watch.Record
		if err == nil {
			recs, err = led.Records()
		}
		if err == nil && len(recs) != len(jobs) {
			err = fmt.Errorf("%s ledger holds %d records after %d cycles", d.Name, len(recs), len(jobs))
		}
		if err != nil {
			for i := range jobs {
				if jobs[i].err == nil {
					jobs[i].err = err
				}
			}
			continue
		}
		for i, r := range recs {
			j := &jobs[i]
			j.checks += r.Checks
			j.fp += fmt.Sprintf("%s#%d %v %d/%d %s %s %d;", r.Deployment, r.Seq, r.Passed,
				r.Checks, r.States, r.TraceBlob, r.TraceDigest, len(r.Drift))
			if j.err == nil && (r.Passed != d.Secure || len(r.Drift) > 0) {
				j.err = fmt.Errorf("%s record %d: passed=%v want %v, %d drift",
					d.Name, r.Seq, r.Passed, d.Secure, len(r.Drift))
			}
		}
	}
	if sp != nil {
		filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
			if err == nil && !e.IsDir() {
				if fi, err := e.Info(); err == nil {
					sp.n[cLedgerBytes] += fi.Size()
				}
			}
			return nil
		})
	}
}

// scrapeOnce serves one /status request in-process and checks it: a 200,
// a decodable body listing every registered deployment in order, at least
// the appended records that made it due, and every verified deployment
// healthy.
func (w *watchCycles) scrapeOnce(h http.Handler, appended int) (int, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/status", nil))
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
	}
	var st watch.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return 0, fmt.Errorf("undecodable /status: %w", err)
	}
	if len(st.Deployments) != len(w.deploys) {
		return 0, fmt.Errorf("/status lists %d deployments, want %d", len(st.Deployments), len(w.deploys))
	}
	records := 0
	for i, d := range st.Deployments {
		if d.Name != w.deploys[i].Name {
			return 0, fmt.Errorf("/status deployment %d is %q, want %q", i, d.Name, w.deploys[i].Name)
		}
		if d.Builds > 0 && !d.Healthy {
			return 0, fmt.Errorf("/status: %s unhealthy after %d builds", d.Name, d.Builds)
		}
		records += d.Builds
	}
	if records < appended {
		return records, fmt.Errorf("/status reports %d records after %d appends", records, appended)
	}
	return records, nil
}
