package opsserver

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/telemetry"
)

func startTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	opts.Addr = "127.0.0.1:0"
	s, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestServerServesAllEndpoints(t *testing.T) {
	live := telemetry.NewLive()
	live.Tick(10, 1000, 300, 301)
	eng := des.New()
	watch := des.NewWatch()
	eng.SetWatch(watch)
	eng.AtLabeled(1, "service", func(*des.Engine) {})
	if err := eng.RunGuarded(100); err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewSweepTracker([]string{"read.4"}, 1)
	s := startTestServer(t, Options{Tool: "arraysim", Run: "smoke", Live: live, Watch: watch, Sweep: tr})

	code, body, hdr := get(t, "http://"+s.Addr()+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != ContentType {
		t.Fatalf("/metrics content type %q", ct)
	}
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Fatalf("/metrics does not end with # EOF:\n%s", body)
	}
	for _, want := range []string{"sim_virtual_seconds 10", "sim_events_total 1000", "sweep_cells{state=\"pending\"} 1"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body, hdr = get(t, "http://"+s.Addr()+"/progress")
	if code != 200 || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("/progress status %d type %q", code, hdr.Get("Content-Type"))
	}
	var rep progressReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/progress not JSON: %v\n%s", err, body)
	}
	if rep.Status != "running" || rep.Live == nil || rep.Live.Events != 1000 || rep.Sweep == nil {
		t.Fatalf("/progress content wrong: %s", body)
	}

	code, body, _ = get(t, "http://"+s.Addr()+"/healthz")
	if code != 200 || !strings.Contains(body, `"status": "ok"`) {
		t.Fatalf("/healthz status %d body %s", code, body)
	}

	s.MarkDone()
	code, body, _ = get(t, "http://"+s.Addr()+"/healthz")
	if code != 200 || !strings.Contains(body, `"status": "done"`) {
		t.Fatalf("/healthz after MarkDone: status %d body %s", code, body)
	}
}

func TestHealthzReportsWatchdogStall(t *testing.T) {
	eng := des.New()
	watch := des.NewWatch()
	eng.SetWatch(watch)
	var loop des.Handler
	loop = func(e *des.Engine) { e.AtLabeled(e.Now(), "spin", loop) }
	eng.AtLabeled(0, "spin", loop)
	if err := eng.RunGuarded(10); err == nil {
		t.Fatal("expected stall")
	}
	s := startTestServer(t, Options{Tool: "arraysim", Watch: watch})
	code, body, _ := get(t, "http://"+s.Addr()+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz status %d, want 503:\n%s", code, body)
	}
	var rep healthReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != "stalled" || rep.Stall == nil || rep.Stall.LastLabel != "spin" {
		t.Fatalf("healthz stall report wrong: %s", body)
	}
	// The stall is also visible in /metrics.
	_, metrics, _ := get(t, "http://"+s.Addr()+"/metrics")
	if !strings.Contains(metrics, "des_watchdog_stalled 1") {
		t.Fatalf("/metrics missing stalled gauge:\n%s", metrics)
	}
}

func TestHealthzReportsSweepCellStall(t *testing.T) {
	tr := telemetry.NewSweepTracker([]string{"read.4", "read.6"}, 2)
	_, watch := tr.StartCell("read.4")
	eng := des.New()
	eng.SetWatch(watch)
	var loop des.Handler
	loop = func(e *des.Engine) { e.AtLabeled(e.Now(), "spin", loop) }
	eng.AtLabeled(0, "spin", loop)
	if err := eng.RunGuarded(10); err == nil {
		t.Fatal("expected stall")
	}
	s := startTestServer(t, Options{Tool: "experiments", Sweep: tr})
	code, body, _ := get(t, "http://"+s.Addr()+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz status %d, want 503:\n%s", code, body)
	}
	var rep healthReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != "stalled" || len(rep.StalledCells) != 1 || rep.StalledCells[0] != "read.4" {
		t.Fatalf("healthz sweep stall report wrong: %s", body)
	}
}

func TestHealthzDetectsWallClockStuckness(t *testing.T) {
	live := telemetry.NewLive()
	watch := des.NewWatch()
	s := startTestServer(t, Options{Tool: "arraysim", Live: live, Watch: watch, StaleAfter: 30 * time.Second})
	// First probe arms the staleness clock at "now".
	if code, _, _ := get(t, "http://"+s.Addr()+"/healthz"); code != 200 {
		t.Fatalf("fresh server unhealthy")
	}
	// Jump the server's clock far forward with no event progress.
	s.mu.Lock()
	base := s.now()
	s.now = func() time.Time { return base.Add(5 * time.Minute) }
	s.mu.Unlock()
	code, body, _ := get(t, "http://"+s.Addr()+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"status": "stuck"`) {
		t.Fatalf("stuck not detected: status %d body %s", code, body)
	}
	// Done runs are not stuck, however long they sit.
	s.MarkDone()
	code, body, _ = get(t, "http://"+s.Addr()+"/healthz")
	if code != 200 || !strings.Contains(body, `"status": "done"`) {
		t.Fatalf("done run reported unhealthy: %d %s", code, body)
	}
}

func TestProgressSSEStreams(t *testing.T) {
	tr := telemetry.NewSweepTracker([]string{"a", "b"}, 1)
	tr.StartCell("a")
	s := startTestServer(t, Options{Tool: "experiments", Sweep: tr, SSEInterval: 20 * time.Millisecond})

	req, err := http.NewRequest("GET", "http://"+s.Addr()+"/progress?stream=sse", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	reader := bufio.NewReader(resp.Body)
	var events []string
	deadline := time.After(5 * time.Second)
	for len(events) < 3 {
		lineCh := make(chan string, 1)
		go func() {
			line, err := reader.ReadString('\n')
			if err != nil {
				close(lineCh)
				return
			}
			lineCh <- line
		}()
		select {
		case line, ok := <-lineCh:
			if !ok {
				t.Fatal("stream closed early")
			}
			if strings.HasPrefix(line, "data: ") {
				events = append(events, strings.TrimPrefix(strings.TrimSpace(line), "data: "))
			}
		case <-deadline:
			t.Fatalf("timed out waiting for SSE events; got %d", len(events))
		}
	}
	var rep progressReport
	if err := json.Unmarshal([]byte(events[0]), &rep); err != nil {
		t.Fatalf("SSE payload not JSON: %v\n%s", err, events[0])
	}
	if rep.Sweep == nil || rep.Sweep.Running != 1 {
		t.Fatalf("SSE payload wrong: %s", events[0])
	}
	// The Accept header route works too.
	req2, _ := http.NewRequest("GET", "http://"+s.Addr()+"/progress", nil)
	req2.Header.Set("Accept", "text/event-stream")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Accept-negotiated SSE content type %q", ct)
	}
}

func TestServerSetSweepSwapsTracker(t *testing.T) {
	tr1 := telemetry.NewSweepTracker([]string{"a"}, 1)
	s := startTestServer(t, Options{Tool: "experiments", Sweep: tr1})
	tr2 := telemetry.NewSweepTracker([]string{"x", "y", "z"}, 1)
	s.SetSweep(tr2)
	_, body, _ := get(t, "http://"+s.Addr()+"/progress")
	var rep progressReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Sweep == nil || rep.Sweep.Total != 3 {
		t.Fatalf("SetSweep not visible: %s", body)
	}
}
