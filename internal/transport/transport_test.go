package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/model"
)

func testCfg() dbdc.Config {
	return dbdc.Config{Local: dbscan.Params{Eps: 0.5, MinPts: 5}}
}

func blob(rng *rand.Rand, cx, cy float64, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{cx + rng.NormFloat64()*0.3, cy + rng.NormFloat64()*0.3}
	}
	return pts
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello dbdc")
	n, err := WriteFrame(&buf, MsgLocalModelTimed, payload)
	if err != nil {
		t.Fatal(err)
	}
	if n != frameHeaderSize+len(payload) {
		t.Fatalf("wrote %d bytes", n)
	}
	msgType, got, rn, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != MsgLocalModelTimed || !bytes.Equal(got, payload) || rn != n {
		t.Fatalf("round trip mismatch: type=%d payload=%q n=%d", msgType, got, rn)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, MsgError, nil); err != nil {
		t.Fatal(err)
	}
	msgType, payload, _, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != MsgError || len(payload) != 0 {
		t.Fatal("empty frame mishandled")
	}
}

func TestFrameTooLargeRejected(t *testing.T) {
	// A crafted header advertising 1 GiB must be rejected before any
	// allocation of that size.
	header := make([]byte, frameHeaderSize)
	header[0] = FrameVersion
	header[1] = MsgLocalModelTimed
	binary.LittleEndian.PutUint32(header[2:6], 1<<30)
	if _, _, _, err := ReadFrame(bytes.NewReader(header)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameVersionRejected(t *testing.T) {
	// A version-1 style header (length first, no version byte) must be
	// rejected with the typed version error.
	header := make([]byte, frameHeaderSize)
	header[0] = 1
	if _, _, _, err := ReadFrame(bytes.NewReader(header)); !errors.Is(err, ErrFrameVersion) {
		t.Fatalf("got %v, want ErrFrameVersion", err)
	}
}

func TestFrameChecksumRejected(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, MsgLocalModelTimed, []byte("precious payload")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for off := frameHeaderSize; off < len(raw); off++ {
		flipped := append([]byte(nil), raw...)
		flipped[off] ^= 0x40
		_, _, _, err := ReadFrame(bytes.NewReader(flipped))
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at %d: got %v, want ErrChecksum", off, err)
		}
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, MsgLocalModelTimed, []byte("payload"))
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, _, _, err := ReadFrame(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncated frame of %d bytes accepted", cut)
		}
	}
}

func TestServerValidation(t *testing.T) {
	if _, err := NewServer("127.0.0.1:0", 0, testCfg(), 0); err == nil {
		t.Error("expect=0 accepted")
	}
	bad := testCfg()
	bad.Local.Eps = -1
	if _, err := NewServer("127.0.0.1:0", 1, bad, 0); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestEndToEndTCP runs a complete networked DBDC round on the loopback:
// a server plus three concurrent sites whose data share one spatial
// cluster.
func TestEndToEndTCP(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shared := blob(rng, 0, 0, 300)
	sites := map[string][]geom.Point{
		"site-1": append(shared[:100:100], blob(rng, 8, 8, 100)...),
		"site-2": shared[100:200],
		"site-3": shared[200:],
	}
	srv, err := NewServer("127.0.0.1:0", len(sites), testCfg(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	serverDone := make(chan error, 1)
	var global *model.GlobalModel
	go func() {
		g, err := srv.RunRound()
		global = g
		serverDone <- err
	}()

	var mu sync.Mutex
	reports := make(map[string]*SiteReport)
	var wg sync.WaitGroup
	for id, pts := range sites {
		wg.Add(1)
		go func(id string, pts []geom.Point) {
			defer wg.Done()
			rep, err := RunSite(srv.Addr(), id, pts, testCfg(), 5*time.Second)
			if err != nil {
				t.Errorf("site %s: %v", id, err)
				return
			}
			mu.Lock()
			reports[id] = rep
			mu.Unlock()
		}(id, pts)
	}
	wg.Wait()
	if err := <-serverDone; err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("got %d reports", len(reports))
	}
	// The shared cluster must have one global id visible on all three
	// sites.
	id1 := reports["site-1"].Labels[0]
	id2 := reports["site-2"].Labels[0]
	id3 := reports["site-3"].Labels[0]
	if id1 < 0 || id1 != id2 || id2 != id3 {
		t.Fatalf("shared cluster ids differ: %v %v %v", id1, id2, id3)
	}
	// Global model consistent across sites and server.
	if global == nil || global.NumClusters != 2 {
		t.Fatalf("server global model: %+v", global)
	}
	for id, rep := range reports {
		if rep.Global.NumClusters != global.NumClusters {
			t.Fatalf("site %s sees %d clusters, server %d", id, rep.Global.NumClusters, global.NumClusters)
		}
		if rep.BytesSent <= 0 || rep.BytesReceived <= 0 {
			t.Fatalf("site %s: missing byte accounting", id)
		}
	}
	// Byte counters on the server match what sites observed.
	var sent, recv int64
	for _, rep := range reports {
		sent += int64(rep.BytesSent)
		recv += int64(rep.BytesReceived)
	}
	if srv.BytesIn() != sent || srv.BytesOut() != recv {
		t.Fatalf("byte accounting mismatch: server in=%d out=%d, sites sent=%d received=%d",
			srv.BytesIn(), srv.BytesOut(), sent, recv)
	}
}

// TestTCPMatchesInProcess verifies the networked pipeline produces exactly
// the labeling of the in-process orchestrator.
func TestTCPMatchesInProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	siteData := []dbdc.Site{
		{ID: "a", Points: append(blob(rng, 0, 0, 200), blob(rng, 5, 0, 150)...)},
		{ID: "b", Points: blob(rng, 0.8, 0, 200)},
	}
	inproc, err := dbdc.Run(siteData, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", len(siteData), testCfg(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.RunRound()
	var wg sync.WaitGroup
	labels := make([]cluster.Labeling, len(siteData))
	for i, s := range siteData {
		wg.Add(1)
		go func(i int, s dbdc.Site) {
			defer wg.Done()
			rep, err := RunSite(srv.Addr(), s.ID, s.Points, testCfg(), 5*time.Second)
			if err != nil {
				t.Errorf("site %s: %v", s.ID, err)
				return
			}
			labels[i] = rep.Labels
		}(i, s)
	}
	wg.Wait()
	for i, s := range siteData {
		want := inproc.Sites[s.ID].Labels
		if labels[i] == nil {
			t.Fatalf("site %s missing", s.ID)
		}
		if !labels[i].EquivalentTo(want) {
			t.Fatalf("site %s: TCP labeling differs from in-process", s.ID)
		}
	}
}

// Failure injection: a site that connects and sends garbage must not take
// the round down — the remaining sites still get a global model.
func TestServerSurvivesGarbageSite(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	srv, err := NewServer("127.0.0.1:0", 2, testCfg(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	done := make(chan error, 1)
	go func() {
		_, err := srv.RunRound()
		done <- err
	}()
	// Garbage site: connects, sends a corrupt frame, disappears.
	go func() {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			return
		}
		conn.Write([]byte{0x10, 0x00, 0x00, 0x00, MsgLocalModelTimed, 0xde, 0xad})
		conn.Close()
	}()
	rep, err := RunSite(srv.Addr(), "good", blob(rng, 0, 0, 200), testCfg(), 5*time.Second)
	if err != nil {
		t.Fatalf("healthy site failed: %v", err)
	}
	if rep.Global.NumClusters != 1 {
		t.Fatalf("global clusters = %d, want 1", rep.Global.NumClusters)
	}
	if err := <-done; err != nil {
		t.Fatalf("round failed: %v", err)
	}
}

// infEpsModel is a site's local model with one representative whose ε-range
// is +Inf: structurally a model, but one no global DBSCAN can run over.
func infEpsModel(t *testing.T, rng *rand.Rand, siteID string) []byte {
	t.Helper()
	out, err := dbdc.LocalStep(siteID, blob(rng, 0, 0, 200), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	out.Model.Reps[0].Eps = math.Inf(1)
	b, err := out.Model.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// uploadRaw sends one upload frame on a fresh connection and returns the
// type and payload of the server's answer.
func uploadRaw(t *testing.T, addr string, payload []byte) (byte, []byte) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := WriteFrame(conn, MsgLocalModelTimed, payload); err != nil {
		t.Fatal(err)
	}
	msgType, reply, _, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	return msgType, reply
}

// One site uploading a model with a non-finite representative ε must be
// refused on its own: it gets a MsgError, and the round completes on the
// other sites instead of failing the global step for all of them. A refused
// upload leaves its slot open for a retry, so the round closes at the accept
// deadline on its quorum.
func TestRoundRefusesNonFiniteEps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	srv, err := NewServer("127.0.0.1:0", 3, testCfg(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	done := runRound(srv, RoundOptions{
		Quorum:        2,
		AcceptTimeout: 700 * time.Millisecond,
		ExpectedSites: []string{"bad", "good-1", "good-2"},
	})
	var wg sync.WaitGroup
	siteErrs := make([]error, 2)
	for i, id := range []string{"good-1", "good-2"} {
		pts := blob(rng, float64(i)*0.2, 0, 200)
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			_, siteErrs[i] = RunSite(srv.Addr(), id, pts, testCfg(), 5*time.Second)
		}(i, id)
	}
	msgType, reply := uploadRaw(t, srv.Addr(), infEpsModel(t, rng, "bad"))
	if msgType != MsgError || !strings.Contains(string(reply), "representative 0") {
		t.Errorf("bad site got type 0x%02x %q, want a MsgError naming representative 0", msgType, reply)
	}
	wg.Wait()
	for i, err := range siteErrs {
		if err != nil {
			t.Errorf("good site %d failed: %v", i+1, err)
		}
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("round failed: %v\n%s", r.err, r.report)
	}
	if r.report.OK != 2 || r.report.Failed != 1 {
		t.Fatalf("report ok=%d failed=%d, want 2 and 1\n%s", r.report.OK, r.report.Failed, r.report)
	}
}

// The update server twin: a non-finite ε is refused at the upload, so it
// never reaches the stored models and every later rebuild still succeeds.
func TestUpdateServerRefusesNonFiniteEps(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	srv, err := NewUpdateServer("127.0.0.1:0", testCfg(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(3) }()
	good, err := dbdc.LocalStep("good", blob(rng, 0, 0, 200), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Exchange(srv.Addr(), good.Model, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if msgType, reply := uploadRaw(t, srv.Addr(), infEpsModel(t, rng, "bad")); msgType != MsgError {
		t.Errorf("bad site got type 0x%02x %q, want MsgError", msgType, reply)
	}
	if err := srv.LastRebuildErr(); err != nil {
		t.Fatalf("LastRebuildErr after the refused upload: %v", err)
	}
	if _, _, _, err := Exchange(srv.Addr(), good.Model, 5*time.Second); err != nil {
		t.Fatalf("upload after the refused one: %v", err)
	}
	if err := srv.LastRebuildErr(); err != nil {
		t.Fatalf("LastRebuildErr: %v", err)
	}
	if got := srv.Sites(); len(got) != 1 || got[0] != "good" {
		t.Fatalf("Sites = %v, want [good]", got)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// Failure injection: a site that connects but never sends must only stall
// the round until the timeout, not forever.
func TestServerTimesOutSilentSite(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	srv, err := NewServer("127.0.0.1:0", 2, testCfg(), 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	done := make(chan error, 1)
	go func() {
		_, err := srv.RunRound()
		done <- err
	}()
	// Silent site: connects and stalls.
	silent, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	start := time.Now()
	rep, err := RunSite(srv.Addr(), "good", blob(rng, 0, 0, 200), testCfg(), 5*time.Second)
	if err != nil {
		t.Fatalf("healthy site failed: %v", err)
	}
	if rep.Global == nil {
		t.Fatal("no global model")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("round took %v, timeout did not kick in", elapsed)
	}
	if err := <-done; err != nil {
		t.Fatalf("round failed: %v", err)
	}
}

// When every site fails the round must error out rather than produce an
// empty global model.
func TestServerFailsWhenAllSitesFail(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", 1, testCfg(), 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	done := make(chan error, 1)
	go func() {
		_, err := srv.RunRound()
		done <- err
	}()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{0xFF})
	conn.Close()
	if err := <-done; err == nil {
		t.Fatal("round with zero usable models succeeded")
	}
}

func TestExchangeServerError(t *testing.T) {
	// A fake server that replies with MsgError.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		ReadFrame(conn)
		WriteFrame(conn, MsgError, []byte("round failed"))
	}()
	m := &model.LocalModel{
		SiteID: "s", Kind: model.RepScor, EpsLocal: 1, MinPts: 3, NumObjects: 1,
	}
	_, _, _, err = Exchange(ln.Addr().String(), m, time.Second)
	if err == nil || !strings.Contains(err.Error(), "round failed") {
		t.Fatalf("got %v, want server-reported error", err)
	}
}

func TestExchangeUnexpectedMessage(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		ReadFrame(conn)
		WriteFrame(conn, 0x99, nil)
	}()
	m := &model.LocalModel{SiteID: "s", Kind: model.RepScor, EpsLocal: 1, MinPts: 3}
	if _, _, _, err := Exchange(ln.Addr().String(), m, time.Second); err == nil {
		t.Fatal("unexpected message type accepted")
	}
}

func TestExchangeDialFailure(t *testing.T) {
	m := &model.LocalModel{SiteID: "s", Kind: model.RepScor, EpsLocal: 1, MinPts: 3}
	if _, _, _, err := Exchange("127.0.0.1:1", m, 200*time.Millisecond); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestWriteFrameShortWriter(t *testing.T) {
	w := &limitWriter{limit: 3}
	if _, err := WriteFrame(w, MsgLocalModelTimed, []byte("x")); err == nil {
		t.Fatal("short write not reported")
	}
}

// TestWriteFrameOneWrite: a frame goes to its writer in one Write, header
// and payload together, whatever the payload's size, so a TCP_NODELAY
// connection does not send the 10-byte header as a segment of its own.
func TestWriteFrameOneWrite(t *testing.T) {
	big := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(big)
	for _, payload := range [][]byte{nil, []byte("small payload"), big} {
		w := &countingWriter{}
		n, err := WriteFrame(w, MsgLocalModelTimed, payload)
		if err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 || n != w.buf.Len() {
			t.Fatalf("%d-byte payload: %d writes of %d bytes, WriteFrame reported %d", len(payload), w.writes, w.buf.Len(), n)
		}
		header := make([]byte, frameHeaderSize)
		header[0], header[1] = FrameVersion, MsgLocalModelTimed
		binary.LittleEndian.PutUint32(header[2:6], uint32(len(payload)))
		binary.LittleEndian.PutUint32(header[6:10], crc32.ChecksumIEEE(payload))
		if !bytes.Equal(w.buf.Bytes(), append(header, payload...)) {
			t.Fatalf("%d-byte payload: the bytes written are not the header followed by the payload", len(payload))
		}
	}
}

// countingWriter records what it is written and in how many calls.
type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// TestReadFrameIntoReusesBuffer: a frame that fits the buffer's capacity is
// read into its backing array, one that does not into a new array.
func TestReadFrameIntoReusesBuffer(t *testing.T) {
	var wire bytes.Buffer
	WriteFrame(&wire, MsgClassifyReply, []byte("fits"))
	WriteFrame(&wire, MsgClassifyReply, []byte("does not fit in 16 bytes"))
	buf := make([]byte, 16)
	_, payload, _, err := ReadFrameInto(&wire, buf[:0])
	if err != nil || string(payload) != "fits" || &payload[0] != &buf[0] {
		t.Fatalf("small frame: payload %q, err %v, or not read into the buffer", payload, err)
	}
	_, payload, _, err = ReadFrameInto(&wire, buf[:0])
	if err != nil || string(payload) != "does not fit in 16 bytes" {
		t.Fatalf("large frame: payload %q, err %v", payload, err)
	}
	if &payload[0] == &buf[0] {
		t.Fatal("large frame: read into the 16-byte buffer")
	}
}

type limitWriter struct {
	limit   int
	written int
}

func (w *limitWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.limit {
		n := w.limit - w.written
		w.written = w.limit
		return n, io.ErrShortWrite
	}
	w.written += len(p)
	return len(p), nil
}

// Property (testing/quick): ReadFrame never panics on arbitrary byte
// garbage and always round-trips frames WriteFrame produced.
func TestQuickFrameRobustness(t *testing.T) {
	f := func(msgType byte, payload []byte, garbage []byte) bool {
		var buf bytes.Buffer
		if _, err := WriteFrame(&buf, msgType, payload); err != nil {
			return false
		}
		gotType, gotPayload, _, err := ReadFrame(&buf)
		if err != nil || gotType != msgType || !bytes.Equal(gotPayload, payload) {
			return false
		}
		// Arbitrary garbage must produce an error or a bounded frame,
		// never a panic (the deferred recover converts one into a fail).
		defer func() { recover() }()
		_, p, _, err := ReadFrame(bytes.NewReader(garbage))
		return err != nil || len(p) <= MaxFrameSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
