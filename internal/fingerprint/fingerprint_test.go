package fingerprint

import (
	"testing"
	"time"

	"natpeek/internal/domains"
	"natpeek/internal/geo"
	"natpeek/internal/household"
	"natpeek/internal/mac"
	"natpeek/internal/rng"
	"natpeek/internal/trafficgen"
)

func TestNormalize(t *testing.T) {
	s := Signature{domains.Streaming: 3, domains.Social: 1}.Normalize()
	if s[domains.Streaming] != 0.75 || s[domains.Social] != 0.25 {
		t.Fatalf("normalized %v", s)
	}
	empty := Signature{}.Normalize()
	if len(empty) != 0 {
		t.Fatal("empty changed")
	}
}

func TestCosine(t *testing.T) {
	a := Signature{domains.Streaming: 1}
	b := Signature{domains.Streaming: 1}
	c := Signature{domains.Cloud: 1}
	if Cosine(a, b) < 0.999 {
		t.Fatal("identical signatures not similar")
	}
	if Cosine(a, c) != 0 {
		t.Fatal("orthogonal signatures similar")
	}
	if Cosine(a, Signature{}) != 0 {
		t.Fatal("empty similarity not zero")
	}
}

func TestClassifierRoundTrip(t *testing.T) {
	c := NewClassifier()
	c.Train("mediabox", Signature{domains.Streaming: 0.95, domains.Ads: 0.05})
	c.Train("mediabox", Signature{domains.Streaming: 0.9, domains.CDN: 0.1})
	c.Train("desktop", Signature{domains.Cloud: 0.5, domains.Search: 0.3, domains.News: 0.2})
	label, sim := c.Classify(Signature{domains.Streaming: 0.85, domains.CDN: 0.15})
	if label != "mediabox" || sim < 0.8 {
		t.Fatalf("classified as %q (%.2f)", label, sim)
	}
	label, _ = c.Classify(Signature{domains.Cloud: 0.6, domains.Search: 0.4})
	if label != "desktop" {
		t.Fatalf("classified as %q", label)
	}
}

func TestClassifyEmpty(t *testing.T) {
	c := NewClassifier()
	if l, s := c.Classify(Signature{domains.Ads: 1}); l != "" || s != 0 {
		t.Fatal("untrained classifier classified")
	}
	c.Train("x", Signature{})
	if len(c.Labels()) != 0 {
		t.Fatal("empty signature trained")
	}
}

func TestCentroidAveraging(t *testing.T) {
	c := NewClassifier()
	c.Train("k", Signature{domains.Streaming: 1})
	c.Train("k", Signature{domains.Cloud: 1})
	cent := c.Centroid("k")
	if cent[domains.Streaming] != 0.5 || cent[domains.Cloud] != 0.5 {
		t.Fatalf("centroid %v", cent)
	}
	if c.Centroid("missing") != nil {
		t.Fatal("missing centroid not nil")
	}
}

// TestEndToEndAccuracy trains on synthetic homes and verifies the
// classifier separates the behaviourally distinct kinds (the Fig. 20
// claim) well above chance.
func TestEndToEndAccuracy(t *testing.T) {
	us, _ := geo.Lookup("US")
	root := rng.New(21)
	day0 := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)

	distinct := map[household.DeviceKind]bool{
		household.KindMediaBox: true,
		household.KindConsole:  true,
		household.KindNAS:      true,
		household.KindLaptop:   true,
	}

	var train, test []Labeled
	for h := 0; h < 40; h++ {
		home := household.Generate(us, h, root)
		gen := trafficgen.New(home)
		byDev := map[mac.Addr]Signature{}
		kind := map[mac.Addr]household.DeviceKind{}
		for d := 0; d < 5; d++ {
			day := day0.Add(time.Duration(d) * 24 * time.Hour)
			dt := gen.GenerateDay(day, []household.Interval{{Start: day, End: day.Add(24 * time.Hour)}})
			for _, f := range dt.Flows {
				sig := byDev[f.Device.HW]
				if sig == nil {
					sig = Signature{}
					byDev[f.Device.HW] = sig
					kind[f.Device.HW] = f.Device.Kind
				}
				sig[f.Category] += float64(f.UpBytes + f.DownBytes)
			}
		}
		for hw, sig := range byDev {
			k := kind[hw]
			if !distinct[k] {
				continue
			}
			l := Labeled{Label: string(k), Sig: sig.Normalize()}
			if h < 20 {
				train = append(train, l)
			} else {
				test = append(test, l)
			}
		}
	}
	if len(train) < 10 || len(test) < 10 {
		t.Skipf("too few samples: train=%d test=%d", len(train), len(test))
	}
	c := NewClassifier()
	for _, l := range train {
		c.Train(l.Label, l.Sig)
	}
	_, acc := c.Confusion(test)
	// Four classes → chance is 25%. The distinct kinds should classify
	// far above that.
	if acc < 0.55 {
		t.Fatalf("accuracy %.2f, want well above chance", acc)
	}
}

func TestAnomalyScore(t *testing.T) {
	c := NewClassifier()
	c.Train("iot", Signature{domains.Tech: 0.6, domains.Other: 0.4})
	// Normal IoT chatter: low score.
	normal := Signature{domains.Tech: 0.5, domains.Other: 0.5}
	if s := c.AnomalyScore("iot", normal); s > 0.2 {
		t.Fatalf("normal mix scored %v", s)
	}
	// The same device suddenly bulk-uploading to cloud storage: high.
	infected := Signature{domains.Cloud: 0.95, domains.Other: 0.05}
	if s := c.AnomalyScore("iot", infected); s < 0.5 {
		t.Fatalf("infected mix scored %v", s)
	}
	// Unknown label is maximally suspicious.
	if s := c.AnomalyScore("toaster", normal); s != 1 {
		t.Fatalf("unknown label scored %v", s)
	}
}

func TestFlagSuspicious(t *testing.T) {
	c := NewClassifier()
	c.Train("printer", Signature{domains.Tech: 1})
	c.Train("mediabox", Signature{domains.Streaming: 1})
	obs := []DeviceObservation{
		{Device: mac.FromOUI(0x00264A, 1), Label: "printer",
			Sig: Signature{domains.Tech: 0.95, domains.Other: 0.05}},
		{Device: mac.FromOUI(0x00264A, 2), Label: "printer",
			Sig: Signature{domains.Social: 0.7, domains.Cloud: 0.3}}, // compromised
		{Device: mac.FromOUI(0xB0A737, 3), Label: "mediabox",
			Sig: Signature{domains.Streaming: 0.9, domains.Ads: 0.1}},
	}
	flagged := c.FlagSuspicious(obs, 0.5)
	if len(flagged) != 1 {
		t.Fatalf("flagged %d devices: %v", len(flagged), flagged)
	}
	if flagged[0].Device != mac.FromOUI(0x00264A, 2) {
		t.Fatalf("wrong device flagged: %v", flagged[0])
	}
}

func TestFlagSuspiciousOrdering(t *testing.T) {
	c := NewClassifier()
	c.Train("x", Signature{domains.Tech: 1})
	obs := []DeviceObservation{
		{Device: mac.FromOUI(1, 1), Label: "x", Sig: Signature{domains.Cloud: 1}},
		{Device: mac.FromOUI(1, 2), Label: "x", Sig: Signature{domains.Tech: 0.5, domains.Cloud: 0.5}},
	}
	flagged := c.FlagSuspicious(obs, 0.1)
	if len(flagged) != 2 || flagged[0].Score < flagged[1].Score {
		t.Fatalf("ordering wrong: %v", flagged)
	}
}
