package usagestats

import (
	"errors"
	"net"
	"sync"
)

// The Globus GridFTP server ships one UDP packet per completed transfer to
// a central collector; sites may disable it. Sender and Collector
// implement that channel over real sockets (loopback in tests and
// examples).

// maxPacket bounds a usage packet; records are single short lines.
const maxPacket = 4096

// Sender emits usage packets to a collector address.
type Sender struct {
	conn net.Conn
}

// NewSender dials the collector (UDP).
func NewSender(addr string) (*Sender, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	return &Sender{conn: conn}, nil
}

// Send ships one record. Invalid records are rejected locally.
func (s *Sender) Send(r Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	_, err := s.conn.Write([]byte(r.Marshal()))
	return err
}

// Close releases the socket.
func (s *Sender) Close() error { return s.conn.Close() }

// Collector listens for usage packets and accumulates parsed records.
type Collector struct {
	pc net.PacketConn

	mu      sync.Mutex
	records []Record
	dropped int
	done    chan struct{}
}

// NewCollector starts a collector on addr ("127.0.0.1:0" picks a free
// port; read the chosen address with Addr).
func NewCollector(addr string) (*Collector, error) {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, err
	}
	c := &Collector{pc: pc, done: make(chan struct{})}
	go c.loop()
	return c, nil
}

// Addr returns the bound listen address.
func (c *Collector) Addr() string { return c.pc.LocalAddr().String() }

func (c *Collector) loop() {
	defer close(c.done)
	buf := make([]byte, maxPacket)
	for {
		n, _, err := c.pc.ReadFrom(buf)
		if err != nil {
			return // closed
		}
		r, err := Unmarshal(string(buf[:n]))
		c.mu.Lock()
		if err != nil {
			c.dropped++
		} else {
			// The central collector strips the remote endpoint for
			// privacy, exactly the property that prevented session
			// analysis on the paper's NERSC dataset.
			c.records = append(c.records, r.Anonymize())
		}
		c.mu.Unlock()
	}
}

// Records returns a snapshot of the collected records.
func (c *Collector) Records() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Record, len(c.records))
	copy(out, c.records)
	return out
}

// Close stops the collector and waits for the receive loop to exit.
func (c *Collector) Close() error {
	err := c.pc.Close()
	<-c.done
	if errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}
