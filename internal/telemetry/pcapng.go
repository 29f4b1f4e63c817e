package telemetry

import (
	"encoding/binary"
	"io"

	"juggler/internal/packet"
	"juggler/internal/sim"
)

// capturedPacket is one wire packet retained by the Capture ring. The
// packet struct is copied by value — the stack mutates packets in place as
// they traverse the fabric, and the capture must reflect the wire at the
// moment of capture.
type capturedPacket struct {
	iface   int32
	at      sim.Time
	inbound bool
	pkt     packet.Packet
}

// Capture is the bounded wire-level packet capture ring.
type Capture struct {
	ifaces  []string
	packets ring[capturedPacket]

	// Total counts packets offered, including those rotated out.
	Total int64
}

func newCapture(cap int) *Capture {
	return &Capture{packets: newRing[capturedPacket](cap)}
}

func (c *Capture) iface(name string) int32 {
	for i, n := range c.ifaces {
		if n == name {
			return int32(i)
		}
	}
	c.ifaces = append(c.ifaces, name)
	return int32(len(c.ifaces) - 1)
}

func (c *Capture) add(iface int32, at sim.Time, inbound bool, p *packet.Packet) {
	c.Total++
	c.packets.push(&capturedPacket{iface: iface, at: at, inbound: inbound, pkt: *p})
}

// Len returns the number of retained packets.
func (c *Capture) Len() int {
	if c == nil {
		return 0
	}
	return c.packets.len()
}

// pcapng block types and constants (per the pcapng specification).
const (
	blockSHB = 0x0A0D0D0A
	blockIDB = 0x00000001
	blockEPB = 0x00000006

	byteOrderMagic = 0x1A2B3C4D
	linkTypeRawIP  = 101 // LINKTYPE_RAW: packet begins with the IPv4 header

	optEndOfOpt  = 0
	optIfName    = 2
	optIfTsresol = 9
	optEpbFlags  = 2
)

// WritePcap writes the capture as a pcapng file Wireshark/tshark/tcpdump
// open directly. Each registered interface becomes one Interface
// Description Block (LINKTYPE_RAW, nanosecond timestamps); each packet an
// Enhanced Packet Block whose captured bytes are a synthesized 40-byte
// IPv4+TCP header — the simulation never materializes payload bytes, so
// origlen carries the true wire length while caplen is header-only.
func (k *Sink) WritePcap(w io.Writer) error {
	if k == nil {
		return nil
	}
	c := k.Capture

	var buf []byte
	le := binary.LittleEndian

	// block appends one pcapng block: type, total length, body, trailing
	// total length (lengths include the 12 bytes of framing).
	block := func(typ uint32, body []byte) {
		total := uint32(12 + len(body))
		var hdr [8]byte
		le.PutUint32(hdr[0:], typ)
		le.PutUint32(hdr[4:], total)
		buf = append(buf, hdr[:]...)
		buf = append(buf, body...)
		var tail [4]byte
		le.PutUint32(tail[0:], total)
		buf = append(buf, tail[:]...)
	}
	// opt appends one option (code, value) with padding to 32 bits.
	opt := func(body []byte, code uint16, val []byte) []byte {
		var h [4]byte
		le.PutUint16(h[0:], code)
		le.PutUint16(h[2:], uint16(len(val)))
		body = append(body, h[:]...)
		body = append(body, val...)
		for len(body)%4 != 0 {
			body = append(body, 0)
		}
		return body
	}

	// Section Header Block.
	shb := make([]byte, 16)
	le.PutUint32(shb[0:], byteOrderMagic)
	le.PutUint16(shb[4:], 1) // major
	le.PutUint16(shb[6:], 0) // minor
	le.PutUint64(shb[8:], 0xFFFFFFFFFFFFFFFF)
	block(blockSHB, shb)

	// One IDB per registered interface. if_tsresol 9 = nanoseconds, which
	// maps sim.Time onto pcapng timestamps exactly.
	ifaces := c.ifaces
	if len(ifaces) == 0 && c.Len() > 0 {
		ifaces = []string{"sim0"}
	}
	for _, name := range ifaces {
		idb := make([]byte, 8)
		le.PutUint16(idb[0:], linkTypeRawIP)
		// idb[2:4] reserved; idb[4:8] snaplen 0 = no limit
		idb = opt(idb, optIfName, []byte(name))
		idb = opt(idb, optIfTsresol, []byte{9})
		idb = opt(idb, optEndOfOpt, nil)
		block(blockIDB, idb)
	}

	for _, cp := range c.packets.items() {
		wire := synthHeaders(&cp.pkt)
		caplen := len(wire)
		origlen := cp.pkt.WireLen()
		if origlen < caplen {
			origlen = caplen
		}
		ts := uint64(cp.at)
		epb := make([]byte, 20, 20+caplen+16)
		le.PutUint32(epb[0:], uint32(cp.iface))
		le.PutUint32(epb[4:], uint32(ts>>32))
		le.PutUint32(epb[8:], uint32(ts))
		le.PutUint32(epb[12:], uint32(caplen))
		le.PutUint32(epb[16:], uint32(origlen))
		epb = append(epb, wire...)
		for len(epb)%4 != 0 {
			epb = append(epb, 0)
		}
		// epb_flags bit 0-1: direction (01 inbound, 10 outbound).
		dir := []byte{2, 0, 0, 0}
		if cp.inbound {
			dir[0] = 1
		}
		epb = opt(epb, optEpbFlags, dir)
		epb = opt(epb, optEndOfOpt, nil)
		block(blockEPB, epb)
	}

	_, err := w.Write(buf)
	return err
}

// synthHeaders builds the 40-byte IPv4+TCP header image for a simulated
// packet. The simulation's abstract flag bits are translated to real TCP
// flag positions so Wireshark dissects SYN/ACK/SACK traffic correctly.
func synthHeaders(p *packet.Packet) []byte {
	b := make([]byte, 40)
	totalLen := p.WireLen()
	if totalLen > 0xFFFF {
		totalLen = 0xFFFF
	}

	// IPv4 header.
	b[0] = 0x45 // version 4, IHL 5
	tos := byte(0)
	if p.CE {
		tos = 0x03 // ECN CE
	}
	b[1] = tos
	binary.BigEndian.PutUint16(b[2:], uint16(totalLen))
	b[8] = 64 // TTL
	b[9] = byte(p.Flow.Proto)
	binary.BigEndian.PutUint32(b[12:], p.Flow.SrcIP)
	binary.BigEndian.PutUint32(b[16:], p.Flow.DstIP)
	binary.BigEndian.PutUint16(b[10:], ipChecksum(b[:20]))

	// TCP header.
	t := b[20:]
	binary.BigEndian.PutUint16(t[0:], p.Flow.SrcPort)
	binary.BigEndian.PutUint16(t[2:], p.Flow.DstPort)
	binary.BigEndian.PutUint32(t[4:], p.Seq)
	binary.BigEndian.PutUint32(t[8:], p.AckSeq)
	t[12] = 5 << 4 // data offset: 5 words
	t[13] = tcpFlagBits(p.Flags)
	binary.BigEndian.PutUint16(t[14:], 0xFFFF) // window (not simulated)
	// TCP checksum left zero: payload bytes are not materialized, so a
	// correct checksum is impossible; Wireshark treats 0 as unverifiable.
	return b
}

// tcpFlagBits maps the simulation's flag set onto wire TCP flag bits.
func tcpFlagBits(f packet.Flags) byte {
	var b byte
	if f.Has(packet.FlagFIN) {
		b |= 0x01
	}
	if f.Has(packet.FlagSYN) {
		b |= 0x02
	}
	if f.Has(packet.FlagRST) {
		b |= 0x04
	}
	if f.Has(packet.FlagPSH) {
		b |= 0x08
	}
	if f.Has(packet.FlagACK) {
		b |= 0x10
	}
	if f.Has(packet.FlagURG) {
		b |= 0x20
	}
	if f.Has(packet.FlagECE) {
		b |= 0x40
	}
	return b
}

// ipChecksum computes the IPv4 header checksum over hdr (checksum field
// must be zero when called).
func ipChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(hdr[i:]))
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}
