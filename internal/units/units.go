// Package units provides the physical units used throughout the simulator:
// bit rates, byte sizes, and the nanosecond time base, together with the
// conversions between them (e.g. serialization delay of a packet on a link).
//
// All simulation time is expressed as integer nanoseconds (sim.Time wraps
// the same representation); all rates are bits per second. Keeping these in
// one small package avoids unit mistakes such as mixing bits and bytes.
package units

import (
	"fmt"
	"time"
)

// BitRate is a link or NIC speed in bits per second.
type BitRate int64

// Common datacenter link speeds.
const (
	Kbps BitRate = 1e3
	Mbps BitRate = 1e6
	Gbps BitRate = 1e9

	// Rate10G and Rate40G are the two NIC speeds evaluated in the paper.
	Rate10G = 10 * Gbps
	Rate40G = 40 * Gbps
)

// String implements fmt.Stringer with an adaptive unit.
func (r BitRate) String() string {
	switch {
	case r >= Gbps && r%Gbps == 0:
		return fmt.Sprintf("%dGb/s", r/Gbps)
	case r >= Gbps:
		return fmt.Sprintf("%.2fGb/s", float64(r)/float64(Gbps))
	case r >= Mbps:
		return fmt.Sprintf("%.1fMb/s", float64(r)/float64(Mbps))
	case r >= Kbps:
		return fmt.Sprintf("%.1fKb/s", float64(r)/float64(Kbps))
	default:
		return fmt.Sprintf("%db/s", int64(r))
	}
}

// Byte sizes. The paper's stack uses 1500 B MTUs and 64 KB TSO segments.
const (
	KB = 1 << 10
	MB = 1 << 20

	// MTU is the Ethernet maximum transmission unit used throughout the
	// paper's experiments (1500 bytes including TCP/IP headers).
	MTU = 1500

	// MSS is the TCP maximum segment size: MTU minus IP and TCP headers
	// (the Ethernet header is not counted against the MTU).
	MSS = MTU - 40

	// TSOMaxBytes is the largest super-segment handed to the NIC by TSO
	// and the largest segment GRO will build before flushing (64 KB).
	TSOMaxBytes = 64 * KB

	// WireOverhead is the per-packet overhead on the wire beyond the IP
	// packet: Ethernet header, FCS, preamble, and inter-frame gap.
	WireOverhead = 14 + 4 + 8 + 12
)

// TxTime returns the serialization delay of sending n bytes (IP bytes, to
// which the Ethernet wire overhead is added) at rate r.
func TxTime(n int, r BitRate) time.Duration {
	if r <= 0 {
		panic("units: non-positive bit rate")
	}
	bits := int64(n+WireOverhead) * 8
	// ns = bits / (bits/s) * 1e9, computed without overflow for realistic
	// packet sizes (bits ~ 5e5) and rates (>= 1e3).
	return time.Duration(bits * int64(time.Second) / int64(r))
}

// TxTimeNoOverhead returns the serialization delay of exactly n bytes with
// no per-frame overhead added. Used for aggregate byte streams.
func TxTimeNoOverhead(n int64, r BitRate) time.Duration {
	if r <= 0 {
		panic("units: non-positive bit rate")
	}
	return time.Duration(n * 8 * int64(time.Second) / int64(r))
}

// BytesOver returns how many payload bytes rate r delivers in d.
func BytesOver(r BitRate, d time.Duration) int64 {
	if d <= 0 {
		return 0
	}
	return int64(r) / 8 * int64(d) / int64(time.Second)
}

// Throughput returns the average bit rate achieved by transferring n bytes
// in d. It returns 0 for non-positive durations.
func Throughput(n int64, d time.Duration) BitRate {
	if d <= 0 {
		return 0
	}
	return BitRate(float64(n*8) / d.Seconds())
}
