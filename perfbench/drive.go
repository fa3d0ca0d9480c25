package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is the outcome of one sent request.
type sample struct {
	status int
	err    error
	body   []byte
	epoch  string // X-Epoch response header
	loc    string // Location response header
	conn   int    // generator connection slot that sent it
	// Timings. For open-loop ops latency runs from the scheduled
	// instant, so a stall also charges the requests queued behind it;
	// service runs from the actual send. connWait is how long the op
	// waited past its due time for a free connection, lag how late the
	// generator's timer sent it once a connection was free.
	latency, service, connWait, lag time.Duration
}

// ok reports whether the request completed with a 2xx status.
func (s *sample) ok() bool { return s.err == nil && s.status >= 200 && s.status < 300 }

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// send performs one round trip and reads the whole body.
func send(ctx context.Context, client *http.Client, base, method, path string, body []byte) sample {
	ctx, cancel := context.WithTimeout(ctx, requestLimit)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return sample{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return sample{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return sample{
		status: resp.StatusCode, err: err, body: b,
		epoch: resp.Header.Get("X-Epoch"), loc: resp.Header.Get("Location"),
	}
}

// openLoop sends every op at its due time over at most conns
// connections and returns one sample per op, in op order. No slot is
// ever dropped: an op whose due time passes while both connections are
// busy is sent as soon as one frees, and its latency still counts
// from the due time.
func openLoop(ctx context.Context, client *http.Client, base string, ops []*op) []sample {
	samples := make([]sample, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for slot := 0; slot < conns; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) || ctx.Err() != nil {
					return
				}
				o := ops[i]
				picked := time.Now()
				due := start.Add(o.due)
				if d := time.Until(due); d > 0 {
					t := time.NewTimer(d)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
						return
					}
				}
				sent := time.Now()
				s := send(ctx, client, base, o.method, o.path, o.body)
				done := time.Now()
				s.conn = slot
				s.latency, s.service = done.Sub(due), done.Sub(sent)
				if picked.After(due) {
					s.connWait, s.lag = picked.Sub(due), sent.Sub(picked)
				} else {
					s.lag = sent.Sub(due)
				}
				samples[i] = s
			}
		}(slot)
	}
	wg.Wait()
	return samples
}

// job is one closed-loop enrichment job as the client saw it.
type job struct {
	submit sample
	final  jobView
	result json.RawMessage // the finished job's "result", verbatim
	polls  int
	// latency runs from submit until a poll first reads a terminal
	// status.
	latency time.Duration
}

// jobView is the subset of GET /v1/jobs/{id} the checks read.
type jobView struct {
	ID      string          `json:"id"`
	Status  string          `json:"status"`
	Created time.Time       `json:"created"`
	Started *time.Time      `json:"started"`
	Result  json.RawMessage `json:"result"`
}

// enrichLoop is the closed-loop client: submit one enrichment job with
// apply:false, poll it to a terminal status, then submit the next,
// until the window has passed. The job in flight when the window ends
// still completes and counts. The loop stops at the first job that is
// refused or does not end done, so a failing server is not hammered;
// that job is returned and counts as failed.
func enrichLoop(ctx context.Context, client *http.Client, base string, top int, window time.Duration) ([]job, error) {
	body, err := json.Marshal(map[string]any{"top": top, "apply": false, "workers": jobWorkers})
	if err != nil {
		return nil, err
	}
	var jobs []job
	start := time.Now()
	for time.Since(start) < window {
		if err := ctx.Err(); err != nil {
			return jobs, err
		}
		t0 := time.Now()
		j := job{submit: send(ctx, client, base, http.MethodPost, "/v1/jobs/enrich", body)}
		if j.submit.status != http.StatusAccepted || j.submit.loc == "" {
			j.final = jobView{Status: fmt.Sprintf("submit status %d (%v)", j.submit.status, j.submit.err)}
			return append(jobs, j), nil
		}
		for {
			time.Sleep(pollInterval)
			p := send(ctx, client, base, http.MethodGet, j.submit.loc, nil)
			j.polls++
			if !p.ok() {
				j.final = jobView{Status: fmt.Sprintf("poll status %d (%v)", p.status, p.err)}
				break
			}
			var v jobView
			if err := json.Unmarshal(p.body, &v); err != nil {
				j.final = jobView{Status: "undecodable poll: " + err.Error()}
				break
			}
			if v.Status == "done" || v.Status == "failed" || v.Status == "cancelled" {
				j.latency = time.Since(t0)
				j.final, j.result = v, v.Result
				break
			}
		}
		jobs = append(jobs, j)
		if j.final.Status != "done" {
			return jobs, nil
		}
	}
	return jobs, nil
}

// quantile is the linear-interpolation quantile of the raw values
// (no histogram bucketing, so a small change is not rounded away).
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var t float64
	for _, v := range vals {
		t += v
	}
	return t / float64(len(vals))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
