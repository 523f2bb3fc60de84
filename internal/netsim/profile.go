// Package netsim provides an in-process simulated datagram network with
// configurable latency, jitter, bandwidth, loss and partitions.
//
// It substitutes for the paper's physical testbed (iPAQ hx4700 PDA and
// laptop joined by an IP-over-USB link, §IV–V): the link profiles below
// reproduce the testbed's measured envelope so that the evaluation
// figures can be regenerated deterministically on any machine, while
// exercising exactly the same code paths (framing, acknowledgements,
// copies) as a physical link would.
package netsim

import "time"

// Profile describes one directed link's behaviour.
type Profile struct {
	// Name labels the profile in logs and benchmark output.
	Name string
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Jitter is the half-width of a uniform random delay added to
	// Latency (delay drawn from [Latency-Jitter, Latency+Jitter]).
	Jitter time.Duration
	// Bandwidth is the link rate in bytes per second; 0 means
	// unlimited. Transmission of a datagram occupies the link for
	// size/Bandwidth, serialising back-to-back sends.
	Bandwidth int64
	// Loss is the independent drop probability per datagram.
	Loss float64
	// Duplicate is the probability a datagram is delivered twice.
	Duplicate float64
	// Reorder is the probability a datagram is held back by an extra
	// ReorderBy delay, letting later datagrams overtake it — the
	// multipath/queueing reordering real radio links exhibit.
	Reorder float64
	// ReorderBy is the extra delay applied to reordered datagrams;
	// 0 means 2×Latency + 2 ms.
	ReorderBy time.Duration
	// MTU bounds datagram size; 0 means the default (60 KiB).
	MTU int
}

// defaultMTU is used when a profile leaves MTU zero.
const defaultMTU = 60 * 1024

// Link profiles. USBLink is calibrated to the paper's measured numbers:
// latency 1.5 ms average over a 0.6–2.3 ms range, raw sustainable
// throughput ≈ 575 KB/s (§V).
var (
	// Perfect is an ideal link for unit tests.
	Perfect = Profile{Name: "perfect"}

	// USBLink models the paper's IP-over-USB PDA↔laptop link.
	USBLink = Profile{
		Name:      "usb-link",
		Latency:   1500 * time.Microsecond,
		Jitter:    850 * time.Microsecond,
		Bandwidth: 575 * 1024,
	}

	// Bluetooth models the Bluetooth 1.2 links the project was
	// moving to (§VI): higher latency, lower throughput, some loss.
	Bluetooth = Profile{
		Name:      "bluetooth",
		Latency:   15 * time.Millisecond,
		Jitter:    5 * time.Millisecond,
		Bandwidth: 90 * 1024,
		Loss:      0.005,
	}

	// ZigBee models an 802.15.4 link (§VI): low rate, small MTU.
	ZigBee = Profile{
		Name:      "zigbee",
		Latency:   10 * time.Millisecond,
		Jitter:    4 * time.Millisecond,
		Bandwidth: 20 * 1024,
		Loss:      0.01,
		MTU:       8 * 1024,
	}

	// WiFi models an 802.11b in-room link.
	WiFi = Profile{
		Name:      "wifi",
		Latency:   2 * time.Millisecond,
		Jitter:    1 * time.Millisecond,
		Bandwidth: 600 * 1024,
		Loss:      0.002,
	}
)

// Lossy derives a profile from Perfect with the given drop probability;
// used by property tests of the reliability layer.
func Lossy(p float64) Profile {
	return Profile{Name: "lossy", Loss: p}
}

// Torture is the reliability layer's worst-case test profile: loss,
// duplication and heavy reordering on a link with real latency, so
// sliding-window retransmission, dedup and the receiver's reorder
// buffer are all exercised at once.
var Torture = Profile{
	Name:      "torture",
	Latency:   300 * time.Microsecond,
	Jitter:    200 * time.Microsecond,
	Loss:      0.2,
	Duplicate: 0.2,
	Reorder:   0.3,
	ReorderBy: 3 * time.Millisecond,
}

// reorderBy returns the effective extra delay for reordered datagrams.
func (p Profile) reorderBy() time.Duration {
	if p.ReorderBy > 0 {
		return p.ReorderBy
	}
	return 2*p.Latency + 2*time.Millisecond
}

// mtu returns the effective MTU.
func (p Profile) mtu() int {
	if p.MTU <= 0 {
		return defaultMTU
	}
	return p.MTU
}
