package amnet

import (
	"reflect"
	"testing"
	"time"
)

const hBulkDone HandlerID = 40

type bulkRecord struct {
	data []float64
	tag  uint64
	fin  Packet // the packet delivered to the fin's handler
}

func bulkNet(t *testing.T, nodes int, flow FlowMode, sink *[]bulkRecord) *Network {
	t.Helper()
	nw, err := NewNetwork(Config{Nodes: nodes, Flow: flow, InboxCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	nw.Register(hBulkDone, func(ep *Endpoint, p Packet) {
		*sink = append(*sink, bulkRecord{data: p.Data, tag: p.U0, fin: p})
	})
	return nw
}

func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i)
	}
	return v
}

func checkRamp(t *testing.T, got []float64, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("payload length %d, want %d", len(got), n)
	}
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("payload[%d]=%v, want %v", i, v, float64(i))
		}
	}
}

// pumpUntil polls both endpoints until cond holds or the deadline passes.
func pumpUntil(t *testing.T, nw *Network, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		progressed := false
		for i := 0; i < nw.Nodes(); i++ {
			if nw.Endpoint(NodeID(i)).PollAll() > 0 {
				progressed = true
			}
		}
		if !progressed && time.Now().After(deadline) {
			t.Fatal("bulk transfer did not complete")
		}
	}
}

func TestBulkTransferAllModes(t *testing.T) {
	for _, flow := range []FlowMode{FlowOneActive, FlowEager} {
		for _, words := range []int{0, 1, SegWords - 1, SegWords, SegWords + 1, 12*SegWords + SegWords/2, 512 * SegWords} {
			var got []bulkRecord
			nw := bulkNet(t, 2, flow, &got)
			// Eager sends block the sending PE until the receiver
			// drains, so the send must run on its own goroutine, as a
			// PE would.  While it runs, only the receiver may poll.
			sendDone := make(chan struct{})
			go func() {
				defer close(sendDone)
				nw.Endpoint(0).BulkSend(1, ramp(words), Packet{Handler: hBulkDone, U0: 77, U1: 78, U2: 79, VT: 1.5, Payload: "fin"})
			}()
			deadline := time.Now().Add(5 * time.Second)
		waitSend:
			for {
				select {
				case <-sendDone:
					break waitSend
				default:
					nw.Endpoint(1).PollAll()
					if time.Now().After(deadline) {
						t.Fatalf("flow=%v words=%d: BulkSend did not return", flow, words)
					}
				}
			}
			pumpUntil(t, nw, func() bool { return len(got) == 1 })
			// The fin's words, VT and payload arrive as sent; U3 is the
			// protocol's and arrives zero.
			fin := got[0].fin
			fin.Data = nil
			if want := (Packet{Handler: hBulkDone, Dst: 1, U0: 77, U1: 78, U2: 79, VT: 1.5, Payload: "fin"}); !reflect.DeepEqual(fin, want) {
				t.Errorf("flow=%v words=%d: fin arrived as %+v, want %+v", flow, words, fin, want)
			}
			checkRamp(t, got[0].data, words)
		}
	}
}

func TestBulkManyConcurrentTransfers(t *testing.T) {
	var got []bulkRecord
	nw := bulkNet(t, 4, FlowOneActive, &got)
	const per, words = 5, 12*SegWords + SegWords/2
	for src := NodeID(1); src < 4; src++ {
		for k := 0; k < per; k++ {
			nw.Endpoint(src).BulkSend(0, ramp(words), Packet{Handler: hBulkDone, U0: uint64(src)*100 + uint64(k)})
		}
	}
	pumpUntil(t, nw, func() bool { return len(got) == 3*per })
	for _, r := range got {
		checkRamp(t, r.data, words)
	}
}

func TestBulkOneActiveQueuesRequests(t *testing.T) {
	var got []bulkRecord
	nw := bulkNet(t, 3, FlowOneActive, &got)
	// Two senders announce big transfers to node 0; with one-active flow
	// control at least one request must queue.
	nw.Endpoint(1).BulkSend(0, ramp(10*SegWords), Packet{Handler: hBulkDone, U0: 1})
	nw.Endpoint(2).BulkSend(0, ramp(10*SegWords), Packet{Handler: hBulkDone, U0: 2})
	pumpUntil(t, nw, func() bool { return len(got) == 2 })
	if q := nw.Endpoint(0).Stats().BulkQueued; q < 1 {
		t.Errorf("BulkQueued=%d, want >=1 under one-active flow control", q)
	}
}

func TestBulkFIFOPerSender(t *testing.T) {
	var got []bulkRecord
	nw := bulkNet(t, 2, FlowOneActive, &got)
	for k := uint64(0); k < 10; k++ {
		nw.Endpoint(0).BulkSend(1, ramp(6*SegWords+SegWords/4), Packet{Handler: hBulkDone, U0: k})
	}
	pumpUntil(t, nw, func() bool { return len(got) == 10 })
	for i, r := range got {
		if r.tag != uint64(i) {
			t.Fatalf("bulk fins out of order: position %d has tag %d", i, r.tag)
		}
	}
}

func TestBulkStatsCounted(t *testing.T) {
	var got []bulkRecord
	nw := bulkNet(t, 2, FlowOneActive, &got)
	nw.Endpoint(0).BulkSend(1, ramp(8*SegWords), Packet{Handler: hBulkDone})
	pumpUntil(t, nw, func() bool { return len(got) == 1 })
	if s := nw.Endpoint(0).Stats(); s.BulkSends != 1 {
		t.Errorf("sender BulkSends=%d, want 1", s.BulkSends)
	}
	s := nw.Endpoint(1).Stats()
	if s.BulkRecvs != 1 {
		t.Errorf("receiver BulkRecvs=%d, want 1", s.BulkRecvs)
	}
	if s.BulkWords != 8*SegWords {
		t.Errorf("receiver BulkWords=%d, want %d", s.BulkWords, 8*SegWords)
	}
}

func TestBulkSelfTransfer(t *testing.T) {
	var got []bulkRecord
	nw := bulkNet(t, 1, FlowOneActive, &got)
	nw.Endpoint(0).BulkSend(0, ramp(5*SegWords), Packet{Handler: hBulkDone, U0: 5})
	pumpUntil(t, nw, func() bool { return len(got) == 1 })
	checkRamp(t, got[0].data, 5*SegWords)
}

func TestBulkBacklogDrains(t *testing.T) {
	var got []bulkRecord
	nw := bulkNet(t, 2, FlowOneActive, &got)
	nw.Endpoint(0).BulkSend(1, ramp(100*SegWords), Packet{Handler: hBulkDone})
	if nw.Endpoint(0).BulkBacklog() != 1 {
		t.Fatalf("backlog=%d want 1 before pumping", nw.Endpoint(0).BulkBacklog())
	}
	pumpUntil(t, nw, func() bool { return len(got) == 1 })
	if nw.Endpoint(0).BulkBacklog() != 0 {
		t.Fatalf("backlog=%d want 0 after completion", nw.Endpoint(0).BulkBacklog())
	}
}
