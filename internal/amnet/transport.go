package amnet

// The transport seam: everything below the endpoint API that moves a
// packet between processing elements is an interconnect implementation.
// The in-memory MPSC-ring fabric in this package moves them between the
// endpoints of one process; a Transport (package amnet/sock provides one)
// carries them between OS processes over unix-domain or TCP sockets.
//
// A Network with Config.Remote set spans several processes: endpoints
// whose node ids the transport reports non-resident have no local kernel
// goroutine, and packets addressed to them are handed to the transport
// instead of enqueued on the local ring.  The receiving process's
// transport injects them through Endpoint.Inject, which runs the same
// capacity reservation as local traffic — a packet that crossed a socket
// is indistinguishable from one that crossed the ring.  A FaultPlan's
// losses happen in the transport, which reads it from Network.Faults.

// Transport moves packets between the OS processes of a machine that
// spans more than one.  Implementations are a full mesh: every process
// can reach every other.  All methods except Start/Close must be safe
// for concurrent use; TrySend is called from node kernel goroutines and
// must never block (the caller owns the CMAM poll-while-stalled
// discipline and retries).
type Transport interface {
	// Self returns this process's index (0 is the leader).
	Self() int
	// Procs returns the number of processes spanning the machine.
	Procs() int
	// Resident reports whether node id's kernel goroutine runs in this
	// process.  Ids past the last node (the front end) belong to the
	// leader.
	Resident(id NodeID) bool
	// TrySend offers an already-stamped packet for delivery to the
	// process owning p.Dst, without blocking.  It reports acceptance; a
	// refusal means the outbound queue is momentarily full — the caller
	// polls its own inbox and retries, exactly as for a full in-memory
	// link.
	TrySend(p Packet) bool
	// SendControl delivers an out-of-band control message to one peer
	// process (peer < 0 broadcasts to all others).  Control messages
	// bypass packet framing, the payload codec and packet backpressure;
	// the kernel's distributed termination protocol rides here.  It may
	// take locks and must not be called from node kernel goroutines.
	SendControl(peer int, kind uint8, body []byte) error
	// OnControl installs the control-message receiver, called on
	// transport reader goroutines.  Must be set before Start.
	OnControl(fn func(peer int, kind uint8, body []byte))
	// SetPayloadCodec installs the codec for Packet.Payload bodies.
	// Must be set before Start; packets with a nil Payload never touch
	// the codec.
	SetPayloadCodec(c PayloadCodec)
	// Start attaches the transport to its network and begins delivering
	// inbound traffic through nw's endpoints.  Called once by the
	// machine after handler registration.
	Start(nw *Network) error
	// TransportStats returns a snapshot of wire counters.
	TransportStats() TransportStats
	// LinkStates describes each link to a peer process, for flight
	// records; nil when there are none.
	LinkStates() []LinkState
	// Close tears the transport down; blocked TrySend retry loops and
	// Inject calls unwind.
	Close() error
}

// PayloadCodec translates Packet.Payload values to and from bytes for a
// wire transport.  The kernel supplies the implementation (it knows the
// runtime-protocol body types); transports treat the bytes as opaque.
type PayloadCodec interface {
	// AppendPayload appends p.Payload's wire form to buf, so a transport
	// encodes straight into its frame buffer.  On error the returned
	// slice is buf at its original length.
	AppendPayload(buf []byte, p *Packet) ([]byte, error)
	// DecodePayload rebuilds a payload from the bytes AppendPayload
	// wrote.  It must not retain b.
	DecodePayload(b []byte) (any, error)
}

// TransportStats counts wire traffic.  All counters are cumulative since
// Start.
type TransportStats struct {
	WireSent     uint64 // non-control frames written: packets, replays of them, standalone acks
	WireRecvd    uint64 // packet frames delivered to local endpoints
	WireBytesOut uint64 // frame bytes written, length prefixes included
	WireBytesIn  uint64 // frame bytes read
	WireDropped  uint64 // outbound packets discarded because the transport was closed
	Redials      uint64 // connections re-established after a failure
	CtlSent      uint64 // control messages written
	CtlRecvd     uint64 // control messages delivered
	Replayed     uint64 // frames re-sent after a redial
	AckFrames    uint64 // standalone ack frames written (no reverse traffic to ride on)
	DupFrames    uint64 // replayed frames the reader had already delivered, and dropped
	FaultCuts    uint64 // connections the reader cut on a FaultPlan draw
}

// LinkState is one process-pair link as a flight record shows it.
type LinkState struct {
	Peer     int
	Up       bool
	Gen      int    // connections this link has been given so far
	Unacked  uint32 // frames written that the peer has not acknowledged
	SentSeq  uint32 // sequence number of the last frame written
	AckedSeq uint32 // highest sequence number the peer has acknowledged
	RecvSeq  uint32 // highest sequence number delivered from the peer
}
