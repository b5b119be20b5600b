// Package wifi models the home's wireless environment: the two radios of
// the BISmark router (one 802.11gn on 2.4 GHz, one 802.11an on 5 GHz),
// client association per band, and the neighbourhood of competing access
// points that the router's periodic scan observes.
//
// The paper's WiFi data set comes from exactly this mechanism: "Each
// router only scans for other visible access points in the wireless
// channel that it is configured for; by default, the 2.4 GHz radio is
// configured for channel 11, and the 5 GHz radio is configured for
// channel 36" (§3.2.2) — and scanning "can sometimes cause wireless
// clients to disassociate," which is why the gateway throttles scans when
// clients are associated.
package wifi

import (
	"sort"

	"natpeek/internal/mac"
	"natpeek/internal/rng"
)

// Band is a wireless spectrum band.
type Band int

// The two bands of a dual-radio home router.
const (
	Band24 Band = iota // 2.4 GHz
	Band5              // 5 GHz
)

func (b Band) String() string {
	if b == Band24 {
		return "2.4GHz"
	}
	return "5GHz"
}

// DefaultChannel returns BISmark's default channel for the band
// (channel 11 on 2.4 GHz, channel 36 on 5 GHz).
func DefaultChannel(b Band) int {
	if b == Band24 {
		return 11
	}
	return 36
}

// Overlaps reports whether two channels in a band interfere. On 2.4 GHz,
// channels within 4 of each other overlap (20 MHz channels on 5 MHz
// spacing); on 5 GHz channels are disjoint.
func Overlaps(b Band, c1, c2 int) bool {
	if b == Band5 {
		return c1 == c2
	}
	d := c1 - c2
	if d < 0 {
		d = -d
	}
	return d < 5
}

// AP is one access point visible in the neighbourhood.
type AP struct {
	BSSID   mac.Addr
	SSID    string
	Band    Band
	Channel int
	// RSSI is the received signal strength at the measuring router (dBm).
	RSSI int
}

// Environment is the radio neighbourhood around one home: every foreign
// AP whose beacons reach the house.
type Environment struct {
	aps []AP
}

// NewEnvironment returns an empty neighbourhood.
func NewEnvironment() *Environment { return &Environment{} }

// AddAP registers a neighbouring access point.
func (e *Environment) AddAP(ap AP) { e.aps = append(e.aps, ap) }

// VisibleOn returns the APs beaconing on exactly the given channel and
// band — what a same-channel scan sees.
func (e *Environment) VisibleOn(b Band, channel int) []AP {
	var out []AP
	for _, ap := range e.aps {
		if ap.Band == b && ap.Channel == channel {
			out = append(out, ap)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].RSSI > out[j].RSSI })
	return out
}

// InterferersOn returns APs whose channel overlaps the given channel —
// the contention the paper's §5.3 worries about.
func (e *Environment) InterferersOn(b Band, channel int) []AP {
	var out []AP
	for _, ap := range e.aps {
		if ap.Band == b && Overlaps(b, ap.Channel, channel) {
			out = append(out, ap)
		}
	}
	return out
}

// Radio is one of the router's radios: a band, a channel, and the set of
// associated clients.
type Radio struct {
	Band    Band
	Channel int

	clients map[mac.Addr]bool
	env     *Environment
	rnd     *rng.Stream
}

// NewRadio returns a radio on the band's default channel.
func NewRadio(b Band, env *Environment, rnd *rng.Stream) *Radio {
	return &Radio{
		Band:    b,
		Channel: DefaultChannel(b),
		clients: make(map[mac.Addr]bool),
		env:     env,
		rnd:     rnd,
	}
}

// Associate attaches a client to this radio.
func (r *Radio) Associate(hw mac.Addr) { r.clients[hw] = true }

// Disassociate detaches a client.
func (r *Radio) Disassociate(hw mac.Addr) { delete(r.clients, hw) }

// ClientCount returns the number of associated clients.
func (r *Radio) ClientCount() int { return len(r.clients) }

// Clients returns the associated clients, sorted for determinism.
func (r *Radio) Clients() []mac.Addr {
	out := make([]mac.Addr, 0, len(r.clients))
	for hw := range r.clients {
		out = append(out, hw)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// ScanResult is what one scan observed.
type ScanResult struct {
	Band           Band
	Channel        int
	VisibleAPs     []AP
	ClientsDropped int
}

// DisassocProb is the per-client probability that an active scan knocks
// the client off the radio — the side effect §3.2.2 describes.
const DisassocProb = 0.02

// Scan surveys the radio's own channel. With probability DisassocProb per
// client, the off-channel excursion disassociates that client (it will
// typically re-associate on its own shortly after; the caller decides).
func (r *Radio) Scan() ScanResult {
	res := ScanResult{Band: r.Band, Channel: r.Channel}
	if r.env != nil {
		res.VisibleAPs = r.env.VisibleOn(r.Band, r.Channel)
	}
	if r.rnd != nil {
		for _, hw := range r.Clients() {
			if r.rnd.Bool(DisassocProb) {
				r.Disassociate(hw)
				res.ClientsDropped++
			}
		}
	}
	return res
}
