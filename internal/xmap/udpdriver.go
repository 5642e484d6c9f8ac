package xmap

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/ipv6"
)

// UDPDriver tunnels scanner packets through a real loopback UDP socket
// pair: probes leave as UDP payloads, a responder process answers on its
// own schedule, and replies arrive asynchronously — the behavior a raw
// socket driver has in production, which the lock-step simulator driver
// cannot exhibit. It exists to prove the scanner's receive path handles
// late and bursty delivery.
type UDPDriver struct {
	src      ipv6.Addr
	conn     *net.UDPConn
	respSide *net.UDPConn
	peer     *net.UDPAddr

	mu     sync.Mutex
	buf    [][]byte
	closed bool

	done chan struct{} // reader goroutine exit
}

var _ Driver = (*UDPDriver)(nil)

// Responder consumes one tunneled packet and returns reply packets.
type Responder func(pkt []byte) [][]byte

// maxTunnelPacket bounds one tunneled frame.
const maxTunnelPacket = 64 << 10

// NewUDPDriver opens a loopback socket pair; handler runs in a
// responder goroutine, answering every packet the scanner sends. Call
// Close to stop both sides and release the sockets.
func NewUDPDriver(src ipv6.Addr, handler Responder) (*UDPDriver, error) {
	scanSide, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("xmap: udp driver listen: %w", err)
	}
	respSide, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		closeErr := scanSide.Close()
		return nil, errors.Join(fmt.Errorf("xmap: udp responder listen: %w", err), closeErr)
	}

	d := &UDPDriver{
		src:      src,
		conn:     scanSide,
		respSide: respSide,
		peer:     respSide.LocalAddr().(*net.UDPAddr),
		done:     make(chan struct{}),
	}

	// Responder: read, handle, reply to the sender.
	go func() {
		defer close(d.done)
		buf := make([]byte, maxTunnelPacket)
		for {
			n, from, err := respSide.ReadFromUDP(buf)
			if err != nil {
				return // socket closed
			}
			pkt := append([]byte(nil), buf[:n]...)
			for _, reply := range handler(pkt) {
				if _, err := respSide.WriteToUDP(reply, from); err != nil {
					return
				}
			}
		}
	}()

	// Receiver: drain the scanner-side socket into the buffer.
	go func() {
		buf := make([]byte, maxTunnelPacket)
		for {
			n, err := scanSide.Read(buf)
			if err != nil {
				return
			}
			pkt := append([]byte(nil), buf[:n]...)
			d.mu.Lock()
			if !d.closed {
				d.buf = append(d.buf, pkt)
			}
			d.mu.Unlock()
		}
	}()

	return d, nil
}

// SendBatch implements Driver: one datagram per packet. The first write
// error reports the failing packet's position per the Driver contract.
func (d *UDPDriver) SendBatch(pkts [][]byte) (int, error) {
	for i, pkt := range pkts {
		if _, err := d.conn.WriteToUDP(pkt, d.peer); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

// RecvBatch implements Driver.
func (d *UDPDriver) RecvBatch(buf [][]byte) [][]byte {
	d.mu.Lock()
	buf = append(buf, d.buf...)
	clear(d.buf)
	d.buf = d.buf[:0]
	d.mu.Unlock()
	return buf
}

// SourceAddr implements Driver.
func (d *UDPDriver) SourceAddr() ipv6.Addr { return d.src }

// Close stops both sides and waits for the responder goroutine to exit.
// Safe to call once.
func (d *UDPDriver) Close() error {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	err := errors.Join(d.conn.Close(), d.respSide.Close())
	<-d.done
	return err
}
