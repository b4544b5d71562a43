package main

import (
	"bufio"
	"fmt"
	"hash/maphash"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lcm/internal/core"
	"lcm/internal/replication"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
	"lcm/internal/transport"
	"lcm/internal/wire"
)

// The tracer records spans at the public interfaces of each layer, from
// wrappers that live in this benchmark's own files: the transport
// connections on both sides, the trusted program the host's enclave runs,
// and the stable store the host persists through. The program under test
// is unmodified; the wrappers only exist in traced deployments.
//
// Spans are linked by content: a request's id is a hash of its sealed
// invoke bytes, which appear unchanged in the client frame, the frame the
// server receives and the batch-call payload. A batch span's id is the
// hash of the persistence record its result carries (delta record or
// state blob), which the store wrapper sees again as the appended record
// or the stored blob, so a store span cites its batch by that id.

// spanKind names a span; kindNames gives its printed form.
type spanKind uint8

const (
	kClientOp      spanKind = iota // Do/DoRead call, id = request
	kClientRT                      // client conn Send → reply Recv, child of kClientOp
	kHostResidence                 // server conn Recv → reply Send
	kCoreBatch                     // non-compacting batch Program.Call
	kCoreCompact                   // batch Program.Call whose result has Compact set
	kCoreCall                      // any other Program.Call (durable advance, bootstrap, ...)
	kCoreRead                      // ReadProgram.HandleRead, id = request
	kStoreAppend                   // primary delta-log append group
	kStoreSnapshot                 // Store of the sealed state blob
	kMirrorAppend                  // replica mirror append group
	kCite                          // a batch (id) carrying a request (cause)
)

var kindNames = [...]string{
	kClientOp:      "client.op",
	kClientRT:      "client.transport",
	kHostResidence: "host.residence",
	kCoreBatch:     "core.batch",
	kCoreCompact:   "core.compact",
	kCoreCall:      "core.call",
	kCoreRead:      "core.read",
	kStoreAppend:   "stablestore.append",
	kStoreSnapshot: "stablestore.snapshot",
	kMirrorAppend:  "replication.append",
	kCite:          "cite",
}

// span is one recorded interval. Times are nanoseconds since the tracer's
// base. n is a kind-specific count: invokes per batch, records per append
// group, bytes per snapshot.
type span struct {
	kind       spanKind
	start, end int64
	id, cause  uint64
	n          int64
}

// counters are the byte and frame counts taken at the same boundaries as
// the spans, while tracing is on.
type counters struct {
	clientFrames  atomic.Int64 // invoke frames sent by clients (retries included)
	clientBytes   atomic.Int64 // client request plus reply frame bytes
	appendBytes   atomic.Int64 // primary delta-log record bytes
	snapshotBytes atomic.Int64 // sealed state blob bytes
	mirrorBytes   atomic.Int64 // replica mirror record bytes
}

type tracer struct {
	base time.Time
	seed maphash.Seed
	on   atomic.Bool
	counters

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), seed: maphash.MakeSeed(), spans: make([]span, 0, 1<<20)}
}

// now returns the tracer clock (monotonic nanoseconds since base).
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// requestKey hashes a sealed invoke.
func (t *tracer) requestKey(invoke []byte) uint64 { return maphash.Bytes(t.seed, invoke) }

// blobKey hashes a sealed record or blob by its length and first 64 bytes.
// Sealed bytes open with a random 12-byte nonce, so the prefix identifies
// them; hashing a 14 MB snapshot in full would distort the trace.
func (t *tracer) blobKey(b []byte) uint64 {
	n := uint64(len(b))
	if len(b) > 64 {
		b = b[:64]
	}
	return maphash.Bytes(t.seed, b) ^ n
}

// frameRequestKey returns the request id of an invoke or read-invoke frame
// and whether the frame is one.
func (t *tracer) frameRequestKey(frame []byte) (uint64, bool) {
	if len(frame) == 0 || (frame[0] != wire.FrameInvoke && frame[0] != wire.FrameReadInvoke) {
		return 0, false
	}
	_, _, invoke, err := wire.SplitShardPayload(frame[1:])
	if err != nil {
		return 0, false
	}
	return t.requestKey(invoke), true
}

// writeCSV writes every span as "name,start_ns,end_ns,id,cause,n". Cite
// rows link a batch (id) to one request it carried (cause).
func (t *tracer) writeCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,start_ns,end_ns,id,cause,n")
	for _, s := range t.snapshot() {
		fmt.Fprintf(w, "%s,%d,%d,%x,%x,%d\n", kindNames[s.kind], s.start, s.end, s.id, s.cause, s.n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- transport.Conn, dialled side ----

// clientConn times one session's round trips. The session sends from its
// calling goroutine and receives on a reader goroutine, so the fields the
// reader writes are atomic.
type clientConn struct {
	transport.Conn
	tr *tracer

	id        atomic.Uint64
	sendStart atomic.Int64
	recvEnd   atomic.Int64
	frames    atomic.Int64
}

// roundTrip is what one Do/DoRead call cost on its connection.
type roundTrip struct {
	id                 uint64
	sendStart, recvEnd int64
	frames             int64
}

// begin resets the per-call state before a Do/DoRead.
func (c *clientConn) begin() {
	c.id.Store(0)
	c.frames.Store(0)
	c.recvEnd.Store(0)
}

// take returns the round trip of the call that just returned.
func (c *clientConn) take() roundTrip {
	return roundTrip{id: c.id.Load(), sendStart: c.sendStart.Load(), recvEnd: c.recvEnd.Load(), frames: c.frames.Load()}
}

func (c *clientConn) Send(msg []byte) error {
	if c.tr.on.Load() {
		if key, ok := c.tr.frameRequestKey(msg); ok {
			if c.frames.Add(1) == 1 {
				c.id.Store(key)
				c.sendStart.Store(c.tr.now())
			}
			c.tr.clientFrames.Add(1)
			c.tr.clientBytes.Add(int64(len(msg)))
		}
	}
	return c.Conn.Send(msg)
}

func (c *clientConn) Recv() ([]byte, error) {
	msg, err := c.Conn.Recv()
	if err == nil && c.tr.on.Load() {
		c.recvEnd.Store(c.tr.now())
		c.tr.clientBytes.Add(int64(len(msg)))
	}
	return msg, err
}

// ---- transport.Listener and Conn, accepted side ----

type tracedListener struct {
	transport.Listener
	tr *tracer
}

func (l *tracedListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &serverConn{Conn: c, tr: l.tr}, nil
}

// serverConn pairs each received request with the next reply sent on the
// connection. Every session keeps one request outstanding, so replies
// leave in arrival order.
type serverConn struct {
	transport.Conn
	tr *tracer

	mu      sync.Mutex
	pending []arrival
}

type arrival struct {
	id   uint64 // 0 when the request arrived while tracing was off
	recv int64
}

func (c *serverConn) Recv() ([]byte, error) {
	msg, err := c.Conn.Recv()
	if err != nil {
		return msg, err
	}
	if len(msg) > 0 && (msg[0] == wire.FrameInvoke || msg[0] == wire.FrameReadInvoke) {
		a := arrival{}
		if c.tr.on.Load() {
			a.id, _ = c.tr.frameRequestKey(msg)
			a.recv = c.tr.now()
		}
		c.mu.Lock()
		c.pending = append(c.pending, a)
		c.mu.Unlock()
	}
	return msg, err
}

func (c *serverConn) Send(msg []byte) error {
	c.mu.Lock()
	var a arrival
	if len(c.pending) > 0 {
		a = c.pending[0]
		c.pending = c.pending[1:]
	}
	c.mu.Unlock()
	if a.id != 0 && c.tr.on.Load() {
		c.tr.record(span{kind: kHostResidence, start: a.recv, end: c.tr.now(), id: a.id})
	}
	return c.Conn.Send(msg)
}

// ---- tee.ProgramFactory ----

// traceFactory wraps every program the factory builds. Identity and Init
// are forwarded by embedding, and a program that serves concurrent reads
// keeps doing so: the host's enclave type-asserts tee.ReadProgram.
func traceFactory(f tee.ProgramFactory, tr *tracer) tee.ProgramFactory {
	return func() tee.Program {
		inner := f()
		p := &tracedProgram{Program: inner, tr: tr}
		if rp, ok := inner.(tee.ReadProgram); ok {
			return &tracedReadProgram{tracedProgram: p, rp: rp}
		}
		return p
	}
}

type tracedProgram struct {
	tee.Program
	tr *tracer
}

func (p *tracedProgram) Call(env tee.Env, payload []byte) ([]byte, error) {
	if !p.tr.on.Load() {
		return p.Program.Call(env, payload)
	}
	start := p.tr.now()
	resp, err := p.Program.Call(env, payload)
	end := p.tr.now()
	if err != nil || !core.IsBatchCall(payload) {
		p.tr.record(span{kind: kCoreCall, start: start, end: end})
		return resp, err
	}
	invokes, derr := core.DecodeBatchCall(payload)
	result, rerr := core.DecodeBatchResult(resp)
	if derr != nil || rerr != nil {
		p.tr.record(span{kind: kCoreCall, start: start, end: end})
		return resp, err
	}
	s := span{kind: kCoreBatch, start: start, end: end, n: int64(len(invokes))}
	if result.Compact {
		s.kind = kCoreCompact
	}
	if len(result.DeltaRecord) > 0 {
		s.id = p.tr.blobKey(result.DeltaRecord)
	} else {
		s.id = p.tr.blobKey(result.StateBlob)
	}
	p.tr.record(s)
	for _, in := range invokes {
		p.tr.record(span{kind: kCite, id: s.id, cause: p.tr.requestKey(in)})
	}
	return resp, err
}

type tracedReadProgram struct {
	*tracedProgram
	rp tee.ReadProgram
}

func (p *tracedReadProgram) HandleRead(payload []byte) ([]byte, error) {
	if !p.tr.on.Load() {
		return p.rp.HandleRead(payload)
	}
	start := p.tr.now()
	resp, err := p.rp.HandleRead(payload)
	p.tr.record(span{kind: kCoreRead, start: start, end: p.tr.now(), id: p.tr.requestKey(payload)})
	return resp, err
}

// ---- stablestore.Store ----

// tracedStore times the writes the host (and, under their namespaces, the
// replica mirrors) make through the store handed to host.Config. The
// optional Store interfaces the FileStore implements are passed through.
type tracedStore struct {
	inner *stablestore.FileStore
	tr    *tracer
}

var (
	_ stablestore.Store            = (*tracedStore)(nil)
	_ stablestore.Lister           = (*tracedStore)(nil)
	_ stablestore.LogScanner       = (*tracedStore)(nil)
	_ stablestore.NamespaceDeleter = (*tracedStore)(nil)
)

func isMirror(slot string) bool { return strings.HasSuffix(slot, "/"+replication.SlotMirror) }

func (s *tracedStore) Store(slot string, blob []byte) error {
	if !s.tr.on.Load() || slot != core.SlotStateBlob {
		return s.inner.Store(slot, blob)
	}
	start := s.tr.now()
	err := s.inner.Store(slot, blob)
	s.tr.record(span{kind: kStoreSnapshot, start: start, end: s.tr.now(), cause: s.tr.blobKey(blob), n: int64(len(blob))})
	s.tr.snapshotBytes.Add(int64(len(blob)))
	return err
}

func (s *tracedStore) Append(slot string, record []byte) error {
	return s.AppendGroup(slot, [][]byte{record})
}

func (s *tracedStore) AppendGroup(slot string, records [][]byte) error {
	mirror := isMirror(slot)
	if !s.tr.on.Load() || len(records) == 0 || (!mirror && slot != core.SlotDeltaLog) {
		return s.inner.AppendGroup(slot, records)
	}
	start := s.tr.now()
	err := s.inner.AppendGroup(slot, records)
	sp := span{kind: kStoreAppend, start: start, end: s.tr.now(), cause: s.tr.blobKey(records[0]), n: int64(len(records))}
	var bytes int64
	for _, r := range records {
		bytes += int64(len(r))
	}
	if mirror {
		sp.kind = kMirrorAppend
		s.tr.mirrorBytes.Add(bytes)
	} else {
		s.tr.appendBytes.Add(bytes)
	}
	s.tr.record(sp)
	return err
}

func (s *tracedStore) Load(slot string) ([]byte, error)      { return s.inner.Load(slot) }
func (s *tracedStore) LoadLog(slot string) ([][]byte, error) { return s.inner.LoadLog(slot) }
func (s *tracedStore) TruncateLog(slot string) error         { return s.inner.TruncateLog(slot) }
func (s *tracedStore) Slots() []string                       { return s.inner.Slots() }
func (s *tracedStore) DeleteNamespace(prefix string) error   { return s.inner.DeleteNamespace(prefix) }
func (s *tracedStore) ScanLog(slot string, fn func([]byte) error) error {
	return s.inner.ScanLog(slot, fn)
}
