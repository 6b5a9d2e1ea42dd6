package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"

	"pbox/internal/core"
)

// Client is the feeder side of the wire protocol: ops accumulate into the
// current frame and ship on Flush, when the frame fills, or before a Ping.
// Like core.Worker — whose role it mirrors on the far side — a Client is
// not safe for concurrent use.
type Client struct {
	nc      net.Conn
	bw      *bufio.Writer
	br      *bufio.Reader
	payload []byte
	lastKey int64
	events  int // event ops in the current frame
	// BatchLimit is the number of event ops that triggers an automatic
	// Flush. Larger batches amortize the syscall and length prefix further;
	// the default (4096) keeps frames well under MaxFrame.
	BatchLimit int
	err        error
}

// Dial connects to a wire server and sends the stream preamble.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc)
}

// NewClient wraps an established connection and sends the stream preamble.
func NewClient(nc net.Conn) (*Client, error) {
	c := &Client{
		nc:         nc,
		bw:         bufio.NewWriterSize(nc, 64<<10),
		br:         bufio.NewReaderSize(nc, 4<<10),
		BatchLimit: 4096,
	}
	if _, err := c.bw.WriteString(Magic); err != nil {
		nc.Close()
		return nil, err
	}
	if err := c.bw.WriteByte(Version); err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// Err returns the client's sticky error, set by the first failed operation.
func (c *Client) Err() error { return c.err }

// Close flushes the current frame and closes the connection.
func (c *Client) Close() error {
	flushErr := c.Flush()
	closeErr := c.nc.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// Flush ships the buffered frame (if any) and flushes the connection.
func (c *Client) Flush() error {
	if c.err != nil {
		return c.err
	}
	if len(c.payload) > 0 {
		var hdr [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(hdr[:], uint64(len(c.payload)))
		if _, err := c.bw.Write(hdr[:n]); err != nil {
			c.err = err
			return err
		}
		if _, err := c.bw.Write(c.payload); err != nil {
			c.err = err
			return err
		}
		c.payload = c.payload[:0]
		c.lastKey = 0
		c.events = 0
	}
	if err := c.bw.Flush(); err != nil {
		c.err = err
		return err
	}
	return nil
}

// Register creates a tenant with the given isolation rule and label. The
// tenant id is client-chosen and scoped to this connection; registering an
// id twice is a protocol error.
func (c *Client) Register(tenant uint64, rule core.IsolationRule, label string) {
	c.op(opRegister)
	c.u(tenant)
	c.u(uint64(rule.Type))
	c.u(uint64(rule.Metric))
	c.u(math.Float64bits(rule.Level))
	c.u(uint64(len(label)))
	c.payload = append(c.payload, label...)
}

// Release destroys the tenant's pBox.
func (c *Client) Release(tenant uint64) { c.op(opRelease); c.u(tenant) }

// Activate starts an activity in the tenant's pBox.
func (c *Client) Activate(tenant uint64) { c.op(opActivate); c.u(tenant) }

// Freeze ends the tenant's current activity.
func (c *Client) Freeze(tenant uint64) { c.op(opFreeze); c.u(tenant) }

// SetShared sets the tenant's shared-thread marking.
func (c *Client) SetShared(tenant uint64, shared bool) {
	c.op(opShared)
	c.u(tenant)
	var f uint64
	if shared {
		f = 1
	}
	c.u(f)
}

// Select directs subsequent Event calls at the tenant.
func (c *Client) Select(tenant uint64) { c.op(opSelect); c.u(tenant) }

// Event appends one state event for the selected tenant: one op byte plus a
// zigzag key delta — typically two or three bytes on the wire.
func (c *Client) Event(key core.ResourceKey, ev core.EventType) {
	c.op(byte(opEventBase + int(ev)))
	d := int64(key) - c.lastKey
	c.lastKey = int64(key)
	c.payload = binary.AppendVarint(c.payload, d)
	c.events++
	if c.events >= c.BatchLimit {
		c.Flush() // sticky error, checked by the next call or Err
	}
}

// Pong is the server's reply to a Ping: the echoed sequence number plus the
// server's admitted/shed event totals at reply time.
type Pong struct {
	Seq        uint64
	Events     int64
	ShedConn   int64
	ShedGlobal int64
}

// Ping flushes the current frame and waits for the server's reply — a full
// ingestion barrier: every event shipped before the ping is applied (not
// just received) when Ping returns.
func (c *Client) Ping(seq uint64) (Pong, error) {
	if c.err != nil {
		return Pong{}, c.err
	}
	c.op(opPing)
	c.u(seq)
	if err := c.Flush(); err != nil {
		return Pong{}, err
	}
	n, err := binary.ReadUvarint(c.br)
	if err != nil {
		c.err = err
		return Pong{}, err
	}
	if n > MaxFrame {
		c.err = errors.New("wire: oversized reply frame")
		return Pong{}, c.err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(c.br, buf); err != nil {
		c.err = err
		return Pong{}, err
	}
	var p Pong
	off := 0
	u := func() uint64 {
		v, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			c.err = errors.New("wire: corrupt reply frame")
			return 0
		}
		off += n
		return v
	}
	if len(buf) == 0 || buf[0] != opPong {
		c.err = fmt.Errorf("wire: unexpected reply op")
		return Pong{}, c.err
	}
	off = 1
	p.Seq = u()
	p.Events = int64(u())
	p.ShedConn = int64(u())
	p.ShedGlobal = int64(u())
	if c.err != nil {
		return Pong{}, c.err
	}
	if p.Seq != seq {
		c.err = fmt.Errorf("wire: pong seq %d, want %d", p.Seq, seq)
		return Pong{}, c.err
	}
	return p, nil
}

func (c *Client) op(k byte)  { c.payload = append(c.payload, k) }
func (c *Client) u(v uint64) { c.payload = binary.AppendUvarint(c.payload, v) }
