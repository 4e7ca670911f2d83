package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ccdac/internal/jobs"
	"ccdac/internal/leakcheck"
)

func postJob(t *testing.T, base, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJob(t *testing.T, base, id string) jobs.Job {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s: status %d: %s", id, resp.StatusCode, data)
	}
	var j jobs.Job
	if err := json.Unmarshal(data, &j); err != nil {
		t.Fatalf("job record: %v: %s", err, data)
	}
	return j
}

// submitJobOK POSTs a spec and asserts the 202 contract: Location
// header, queued (or already further) record with an ID.
func submitJobOK(t *testing.T, base, body string) jobs.Job {
	t.Helper()
	resp, data := postJob(t, base, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d, want 202: %s", resp.StatusCode, data)
	}
	var j jobs.Job
	if err := json.Unmarshal(data, &j); err != nil {
		t.Fatalf("submit response: %v: %s", err, data)
	}
	if j.ID == "" {
		t.Fatalf("submit response has no job ID: %s", data)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+j.ID {
		t.Fatalf("Location = %q, want /v1/jobs/%s", loc, j.ID)
	}
	return j
}

// pollJobDone polls one job until it is terminal and asserts it is
// done.
func pollJobDone(t *testing.T, base, id string, timeout time.Duration) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		j := getJob(t, base, id)
		if j.State.Terminal() {
			if j.State != jobs.StateDone {
				t.Fatalf("job %s finished %s (%s), want done", id, j.State, j.Error)
			}
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %s", id, j.State, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobSubmitPollResult is the happy-path API contract: 202 with
// Location, polled to done, result payload per kind, 404s for unknown
// IDs, DELETE cancels.
func TestJobSubmitPollResult(t *testing.T) {
	defer leakcheck.Check(t)()
	srv := New(Options{Logger: quietLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	yj := submitJobOK(t, ts.URL, `{"kind":"yield","bits":5,"samples":80,"seed":2,"spec_inl":0.05}`)
	gj := submitJobOK(t, ts.URL, `{"kind":"generate","bits":4}`)

	done := pollJobDone(t, ts.URL, yj.ID, 60*time.Second)
	var yr jobs.YieldResult
	if err := json.Unmarshal(done.Result, &yr); err != nil {
		t.Fatalf("yield result: %v: %s", err, done.Result)
	}
	if yr.Samples != 80 || yr.SampleHash == "" {
		t.Fatalf("yield result = %d samples, hash %q; want 80 and a sample hash", yr.Samples, yr.SampleHash)
	}
	if done.DoneSamples != 80 {
		t.Fatalf("done_samples = %d, want 80", done.DoneSamples)
	}

	gdone := pollJobDone(t, ts.URL, gj.ID, 60*time.Second)
	var gr jobs.GenerateResult
	if err := json.Unmarshal(gdone.Result, &gr); err != nil {
		t.Fatalf("generate result: %v: %s", err, gdone.Result)
	}
	if gr.Metrics.AreaUm2 <= 0 {
		t.Fatalf("generate metrics = %+v, want a routed area", gr.Metrics)
	}

	// Unknown IDs are 404 on every verb.
	for _, req := range []*http.Request{
		mustReq(t, http.MethodGet, ts.URL+"/v1/jobs/nope", ""),
		mustReq(t, http.MethodDelete, ts.URL+"/v1/jobs/nope", ""),
		mustReq(t, http.MethodGet, ts.URL+"/v1/jobs/nope/events", ""),
	} {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: status %d, want 404", req.Method, req.URL.Path, resp.StatusCode)
		}
	}

	// Bad specs are 400, not queued.
	resp, data := postJob(t, ts.URL, `{"kind":"yield","bits":6,"samples":10}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("spec-less yield job: status %d, want 400: %s", resp.StatusCode, data)
	}
	resp, data = postJob(t, ts.URL, `{"kind":"yield","bits":6,"samples":10,"spec_inl":0.05,"surprise":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400: %s", resp.StatusCode, data)
	}

	// DELETE cancels a long job.
	lj := submitJobOK(t, ts.URL, `{"kind":"yield","bits":8,"samples":50000000,"spec_inl":0.05,"checkpoint_every":1000}`)
	req := mustReq(t, http.MethodDelete, ts.URL+"/v1/jobs/"+lj.ID, "")
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d, want 200", dresp.StatusCode)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		j := getJob(t, ts.URL, lj.ID)
		if j.State.Terminal() {
			if j.State != jobs.StateCanceled {
				t.Fatalf("deleted job finished %s, want canceled", j.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("deleted job never reached a terminal state")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobSubmitRejectsInvalidDesign: /v1/jobs validates design fields
// exactly like /v1/generate. Every spec the facade rejects answers 400
// with the config stage named, for both job kinds, and consumes no
// queue capacity.
func TestJobSubmitRejectsInvalidDesign(t *testing.T) {
	defer leakcheck.Check(t)()
	srv := New(Options{Logger: quietLogger(), JobMaxBatch: 16, JobMaxWait: time.Hour})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	tails := map[string]string{
		"yield":    `"kind":"yield","samples":10,"spec_inl":0.05`,
		"generate": `"kind":"generate"`,
	}
	for _, design := range []string{
		`"bits":1`,
		`"bits":13`,
		`"bits":6,"max_parallel":99`,
		`"bits":6,"core_bits":3,"block_cells":2`,
		`"bits":6,"core_bits":2,"block_cells":999`,
	} {
		for kind, tail := range tails {
			body := "{" + tail + "," + design + "}"
			resp, data := postJob(t, ts.URL, body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s job %s: status %d, want 400: %s", kind, design, resp.StatusCode, data)
				continue
			}
			var er errorResponse
			if err := json.Unmarshal(data, &er); err != nil {
				t.Fatalf("%s job %s: %v: %s", kind, design, err, data)
			}
			if er.Stage != "config" {
				t.Errorf("%s job %s: stage %q, want config: %s", kind, design, er.Stage, data)
			}
		}
	}
	if st := srv.jobs.Stats(); st.Submitted != 0 || st.QueueDepth != 0 {
		t.Fatalf("rejected specs consumed queue capacity: submitted %d, depth %d", st.Submitted, st.QueueDepth)
	}
}

func mustReq(t *testing.T, method, url, body string) *http.Request {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestJobQueueOverflow429: a full bounded queue answers 429 with the
// queue depth in the body, an honest Retry-After header, and the
// overflow visible in /metrics.
func TestJobQueueOverflow429(t *testing.T) {
	defer leakcheck.Check(t)()
	srv := New(Options{
		Logger: quietLogger(), JobWorkers: 1, JobQueueDepth: 1,
		JobMaxBatch: 16, JobMaxWait: time.Hour, // park the first job in the coalescer
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	first := submitJobOK(t, ts.URL, `{"kind":"yield","bits":6,"samples":100,"seed":1,"spec_inl":0.05}`)
	resp, data := postJob(t, ts.URL, `{"kind":"yield","bits":6,"samples":100,"seed":2,"spec_inl":0.05}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit over capacity: status %d, want 429: %s", resp.StatusCode, data)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	var body struct {
		Error      string `json:"error"`
		QueueDepth int    `json:"queue_depth"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatalf("429 body: %v: %s", err, data)
	}
	if body.QueueDepth != 1 {
		t.Fatalf("429 queue_depth = %d, want 1: %s", body.QueueDepth, data)
	}
	if !strings.Contains(body.Error, "queue full") {
		t.Fatalf("429 error %q does not mention the full queue", body.Error)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"ccdac_jobs_queue_depth 1",
		"ccdac_jobs_overflow_total 1",
		"ccdac_jobs_submitted_total 1",
	} {
		if !strings.Contains(string(mdata), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Canceling the parked job frees its reservation for the next one.
	req := mustReq(t, http.MethodDelete, ts.URL+"/v1/jobs/"+first.ID, "")
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if got := getJob(t, ts.URL, first.ID); got.State != jobs.StateCanceled {
		t.Fatalf("parked job after DELETE = %s, want canceled", got.State)
	}
}

// TestJobEventsSSEChurn: several SSE subscribers — some disconnecting
// early — follow one checkpointed job; every surviving subscriber gets
// the final job_done frame, span events flow, and nothing leaks.
func TestJobEventsSSEChurn(t *testing.T) {
	defer leakcheck.Check(t)()
	srv := New(Options{Logger: quietLogger(), JobMaxBatch: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	j := submitJobOK(t, ts.URL, `{"kind":"yield","bits":6,"samples":20000,"seed":5,"spec_inl":0.05,"checkpoint_every":500}`)

	type sseResult struct {
		events int
		done   *jobs.Job
		err    error
	}
	readSSE := func(cancelEarly bool) sseResult {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+j.ID+"/events", nil)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		resp, err := http.DefaultClient.Do(req.WithContext(ctx))
		if err != nil {
			return sseResult{err: err}
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return sseResult{err: fmt.Errorf("status %d", resp.StatusCode)}
		}
		var res sseResult
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		inDone := false
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "event: job_done":
				inDone = true
			case strings.HasPrefix(line, "event: "):
				res.events++
				if cancelEarly && res.events >= 2 {
					cancel()
					return res
				}
			case inDone && strings.HasPrefix(line, "data: "):
				var job jobs.Job
				if err := json.Unmarshal([]byte(line[len("data: "):]), &job); err != nil {
					return sseResult{err: err}
				}
				res.done = &job
				return res
			}
		}
		res.err = sc.Err()
		return res
	}

	const full, early = 3, 3
	results := make([]sseResult, full+early)
	var wg sync.WaitGroup
	for i := 0; i < full+early; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = readSSE(i >= full)
		}(i)
	}
	wg.Wait()

	spanEvents := 0
	for i, r := range results[:full] {
		if r.err != nil {
			t.Fatalf("subscriber %d: %v", i, r.err)
		}
		if r.done == nil {
			t.Fatalf("subscriber %d never received job_done", i)
		}
		if r.done.State != jobs.StateDone {
			t.Fatalf("subscriber %d job_done state = %s (%s), want done", i, r.done.State, r.done.Error)
		}
		spanEvents += r.events
	}
	if spanEvents == 0 {
		t.Error("no subscriber saw a single span event before job_done")
	}
	// The server-side record agrees with the streamed terminal one.
	if j := getJob(t, ts.URL, j.ID); j.State != jobs.StateDone || j.DoneSamples != 20000 {
		t.Fatalf("record after SSE churn = %s with %d samples, want done with 20000", j.State, j.DoneSamples)
	}
}

// TestBatchSharesJobWorkerBudget: /v1/batch items admit through
// jobs.Manager.Do. With the single worker slot held, the whole batch
// parks until the slot frees — the fix for the old scheme where every
// batch privately fanned out MaxInFlight goroutines.
func TestBatchSharesJobWorkerBudget(t *testing.T) {
	defer leakcheck.Check(t)()
	srv := New(Options{Logger: quietLogger(), JobWorkers: 1, MaxInFlight: 8, CacheMaxBytes: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	const hold = 300 * time.Millisecond
	held := make(chan struct{})
	release := make(chan struct{})
	var doWG sync.WaitGroup
	doWG.Add(1)
	go func() {
		defer doWG.Done()
		srv.Jobs().Do(context.Background(), func() error {
			close(held)
			<-release
			return nil
		})
	}()
	<-held
	time.AfterFunc(hold, func() { close(release) })

	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json",
		strings.NewReader(`{"requests":[{"bits":4,"skip_nonlinearity":true},{"bits":5,"skip_nonlinearity":true}]}`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	doWG.Wait()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	var br BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != 2 {
		t.Fatalf("batch items = %d, want 2", len(br.Items))
	}
	for i, it := range br.Items {
		if it.Status != http.StatusOK || it.Response == nil {
			t.Fatalf("item %d = status %d (%s), want 200", i, it.Status, it.Error)
		}
	}
	if elapsed < hold-50*time.Millisecond {
		t.Fatalf("batch finished in %s while the only worker slot was held for %s — batch is not drawing from the shared budget", elapsed, hold)
	}
}

// TestJobCrashResume is the crash-recovery acceptance bar, end to end:
// a daemon process running a checkpointed Monte-Carlo yield job is
// killed with SIGKILL mid-run; a fresh process over the same store
// directory auto-resumes the job from its last durable checkpoint and
// finishes with a payload byte-identical — same sample hash — to an
// uninterrupted run of the same spec.
func TestJobCrashResume(t *testing.T) {
	if dir := os.Getenv("JOBS_CRASH_DIR"); dir != "" {
		jobsCrashChild(dir)
		return // unreachable: the child serves until killed
	}
	const specBody = `{"kind":"yield","bits":8,"samples":60000,"seed":11,"spec_inl":0.05,"checkpoint_every":1000}`

	// Reference: the same spec, uninterrupted, in this process.
	refSrv := New(Options{Logger: quietLogger()})
	tsRef := httptest.NewServer(refSrv.Handler())
	refJob := submitJobOK(t, tsRef.URL, specBody)
	ref := pollJobDone(t, tsRef.URL, refJob.ID, 120*time.Second)
	tsRef.Close()
	refSrv.Close()

	base := t.TempDir()
	dir := filepath.Join(base, "store")
	addrFile := filepath.Join(base, "addr")
	cmd := exec.Command(os.Args[0], "-test.run=^TestJobCrashResume$", "-test.v")
	cmd.Env = append(os.Environ(), "JOBS_CRASH_DIR="+dir, "JOBS_CRASH_ADDR="+addrFile)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	var addr string
	deadline := time.Now().Add(30 * time.Second)
	for addr == "" {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			addr = string(data)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("crash child never published its address")
		}
		time.Sleep(10 * time.Millisecond)
	}
	childURL := "http://" + addr

	j := submitJobOK(t, childURL, specBody)
	deadline = time.Now().Add(60 * time.Second)
	for {
		got := getJob(t, childURL, j.ID)
		if got.State.Terminal() {
			t.Fatalf("child job reached %s before the kill; lower checkpoint_every", got.State)
		}
		if got.Checkpoints >= 3 {
			break // demonstrably mid-run with durable progress
		}
		if time.Now().After(deadline) {
			t.Fatalf("child job never checkpointed (state %s, %d done)", got.State, got.DoneSamples)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup runs
		t.Fatal(err)
	}
	cmd.Wait()

	// A fresh process over the crashed store resumes the job by itself.
	srv2 := New(Options{Logger: quietLogger(), StoreDir: dir})
	defer srv2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	j2, err := srv2.Jobs().Wait(ctx, j.ID)
	if err != nil {
		t.Fatalf("waiting for resumed job: %v (state %s)", err, j2.State)
	}
	if j2.State != jobs.StateDone {
		t.Fatalf("resumed job finished %s (%s), want done", j2.State, j2.Error)
	}
	if !j2.Resumed {
		t.Error("resumed job does not report resumed=true")
	}
	if j2.DoneSamples != 60000 {
		t.Errorf("resumed job done_samples = %d, want 60000", j2.DoneSamples)
	}
	// The HTTP handler re-indents payloads; compare the canonical bytes.
	var refC, resC bytes.Buffer
	if err := json.Compact(&refC, ref.Result); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&resC, j2.Result); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refC.Bytes(), resC.Bytes()) {
		t.Fatalf("resumed result differs from uninterrupted run:\nref:     %s\nresumed: %s", refC.Bytes(), resC.Bytes())
	}
	var yr jobs.YieldResult
	if err := json.Unmarshal(j2.Result, &yr); err != nil {
		t.Fatal(err)
	}
	if yr.SampleHash == "" {
		t.Fatal("resumed result carries no sample hash")
	}
	t.Logf("resumed after SIGKILL with %d checkpoints banked; hash %s matches uninterrupted run", j2.Checkpoints, yr.SampleHash)
}

// jobsCrashChild is the re-exec'd child of TestJobCrashResume: a real
// daemon over the given store directory, address published atomically,
// serving until the parent kills the process.
func jobsCrashChild(dir string) {
	srv := New(Options{Logger: quietLogger(), StoreDir: dir})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "jobs crash child:", err)
		os.Exit(1)
	}
	addrFile := os.Getenv("JOBS_CRASH_ADDR")
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err == nil {
		os.Rename(tmp, addrFile)
	}
	http.Serve(ln, srv.Handler())
}

// TestJobRecordsSurviveRestart: terminal job records — not just
// interrupted ones — persist across a clean restart and stay
// queryable, result intact.
func TestJobRecordsSurviveRestart(t *testing.T) {
	defer leakcheck.Check(t)()
	dir := t.TempDir()
	srv1 := New(Options{Logger: quietLogger(), StoreDir: dir})
	ts1 := httptest.NewServer(srv1.Handler())
	j := submitJobOK(t, ts1.URL, `{"kind":"yield","bits":5,"samples":60,"seed":4,"spec_inl":0.05}`)
	done := pollJobDone(t, ts1.URL, j.ID, 60*time.Second)
	srv1.Close() // flushes the write-behind persister
	ts1.Close()

	srv2 := New(Options{Logger: quietLogger(), StoreDir: dir})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.Close()
	got := getJob(t, ts2.URL, j.ID)
	if got.State != jobs.StateDone {
		t.Fatalf("restored record state = %s, want done", got.State)
	}
	if !bytes.Equal(got.Result, done.Result) {
		t.Fatalf("restored result differs:\nbefore: %s\nafter:  %s", done.Result, got.Result)
	}
}
