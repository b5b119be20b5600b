// Package fingerprint implements the §7 extension the paper sketches:
// identifying the *type* of a device from its traffic rather than only
// its manufacturer — "usage patterns may differ significantly enough
// across types of devices to serve as fingerprints for device
// identification" (§6.4, Fig. 20).
//
// A device's signature is its traffic-volume distribution over domain
// categories (streaming, cloud, social, …). Classification is
// nearest-centroid by cosine similarity over signatures learned from
// labeled examples — the automated version of the paper's six-home
// ground-truth survey.
package fingerprint

import (
	"math"
	"sort"

	"natpeek/internal/domains"
	"natpeek/internal/mac"
)

// Signature is a device's traffic share per domain category. Signatures
// are normalized: shares sum to 1 (or the signature is empty).
type Signature map[domains.Category]float64

// Normalize scales the signature to sum to 1 in place and returns it.
func (s Signature) Normalize() Signature {
	total := 0.0
	for _, v := range s {
		total += v
	}
	if total <= 0 {
		return s
	}
	for k := range s {
		s[k] /= total
	}
	return s
}

// Cosine returns the cosine similarity of two signatures in [0, 1].
func Cosine(a, b Signature) float64 {
	var dot, na, nb float64
	for k, av := range a {
		dot += av * b[k]
		na += av * av
	}
	for _, bv := range b {
		nb += bv * bv
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// Classifier is a nearest-centroid device-type classifier.
type Classifier struct {
	sums   map[string]Signature
	counts map[string]int
}

// NewClassifier returns an empty classifier.
func NewClassifier() *Classifier {
	return &Classifier{sums: map[string]Signature{}, counts: map[string]int{}}
}

// Train adds one labeled example.
func (c *Classifier) Train(label string, sig Signature) {
	if len(sig) == 0 {
		return
	}
	sum := c.sums[label]
	if sum == nil {
		sum = Signature{}
		c.sums[label] = sum
	}
	for k, v := range sig {
		sum[k] += v
	}
	c.counts[label]++
}

// Labels returns the trained labels, sorted.
func (c *Classifier) Labels() []string {
	out := make([]string, 0, len(c.sums))
	for l := range c.sums {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Centroid returns the mean signature for a label (nil if untrained).
func (c *Classifier) Centroid(label string) Signature {
	sum, ok := c.sums[label]
	if !ok {
		return nil
	}
	out := Signature{}
	n := float64(c.counts[label])
	for k, v := range sum {
		out[k] = v / n
	}
	return out.Normalize()
}

// Classify returns the best label for sig and the cosine similarity to
// its centroid. An empty signature or untrained classifier yields
// ("", 0).
func (c *Classifier) Classify(sig Signature) (string, float64) {
	best, bestSim := "", -1.0
	for _, label := range c.Labels() {
		sim := Cosine(sig, c.Centroid(label))
		if sim > bestSim {
			best, bestSim = label, sim
		}
	}
	if bestSim < 0 {
		return "", 0
	}
	return best, bestSim
}

// Confusion evaluates the classifier on labeled test examples and
// returns a confusion matrix truth→predicted→count plus accuracy.
func (c *Classifier) Confusion(tests []Labeled) (map[string]map[string]int, float64) {
	matrix := map[string]map[string]int{}
	correct, total := 0, 0
	for _, t := range tests {
		if len(t.Sig) == 0 {
			continue
		}
		pred, _ := c.Classify(t.Sig)
		row := matrix[t.Label]
		if row == nil {
			row = map[string]int{}
			matrix[t.Label] = row
		}
		row[pred]++
		total++
		if pred == t.Label {
			correct++
		}
	}
	if total == 0 {
		return matrix, 0
	}
	return matrix, float64(correct) / float64(total)
}

// Labeled is a ground-truth example.
type Labeled struct {
	Label string
	Sig   Signature
}

// --- §7: "Device fingerprinting for security alerts" ---------------------
//
// ISPs can flag an infected home but "cannot map offending traffic to a
// particular MAC address". With per-device signatures the gateway can:
// a device whose current traffic mix stops resembling its own kind is
// suspicious — an IoT thermostat suddenly doing bulk upload, a printer
// talking to hundreds of domains.

// AnomalyScore measures how far sig deviates from the trained centroid
// for its expected label: 0 = identical mix, 1 = orthogonal. Unknown
// labels score 1 (nothing to compare against is itself suspicious).
func (c *Classifier) AnomalyScore(expectedLabel string, sig Signature) float64 {
	cent := c.Centroid(expectedLabel)
	if cent == nil || len(sig) == 0 {
		return 1
	}
	return 1 - Cosine(sig, cent)
}

// Suspicion is one flagged device.
type Suspicion struct {
	Device mac.Addr
	Label  string
	Score  float64
}

// FlagSuspicious scores every (device, expected-label, signature) triple
// and returns the ones above the threshold, most anomalous first.
func (c *Classifier) FlagSuspicious(devices []DeviceObservation, threshold float64) []Suspicion {
	var out []Suspicion
	for _, d := range devices {
		score := c.AnomalyScore(d.Label, d.Sig)
		if score >= threshold {
			out = append(out, Suspicion{Device: d.Device, Label: d.Label, Score: score})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Device.String() < out[j].Device.String()
	})
	return out
}

// DeviceObservation is one device's current signature with its expected
// type.
type DeviceObservation struct {
	Device mac.Addr
	Label  string
	Sig    Signature
}
