package ouidb

import (
	"testing"

	"natpeek/internal/mac"
)

func TestLookupKnown(t *testing.T) {
	a := mac.FromOUI(0xB827EB, 0x123456)
	e := Lookup(a)
	if e.Manufacturer != "Raspberry-Pi" || e.Category != CatRaspberryPi {
		t.Fatalf("got %+v", e)
	}
}

func TestLookupUnknown(t *testing.T) {
	a := mac.FromOUI(0xDEAD01, 1)
	e := Lookup(a)
	if e.Category != CatUnknown || e.Manufacturer != "" {
		t.Fatalf("got %+v", e)
	}
}

func TestLookupSurvivesAnonymization(t *testing.T) {
	// The whole point of hashing only the lower 24 bits: manufacturer
	// lookup must be unchanged by anonymization.
	z := mac.NewAnonymizer([]byte("k"))
	a := mac.FromOUI(0x001CB3, 0xABCDEF)
	if Lookup(z.Anonymize(a)) != Lookup(a) {
		t.Fatal("anonymization changed manufacturer lookup")
	}
}

func TestNetgearIsBISmark(t *testing.T) {
	if !IsBISmarkRouter(mac.FromOUI(0x204E7F, 1)) {
		t.Fatal("Netgear OUI not flagged as BISmark hardware")
	}
	if IsBISmarkRouter(mac.FromOUI(0x001CB3, 1)) {
		t.Fatal("Apple flagged as BISmark hardware")
	}
}

func TestOUIsForEveryPaperManufacturer(t *testing.T) {
	for _, m := range []string{
		"Apple", "Intel", "Samsung", "Asus", "Microsoft", "Roku", "TiVo",
		"Nintendo", "Hewlett-Packard", "VMware", "Raspberry-Pi", "Epson",
		"HTC", "Compal", "TP-Link", "UniData", "Polycom",
	} {
		if len(OUIsFor(m)) == 0 {
			t.Errorf("no OUI registered for %q", m)
		}
	}
}

func TestOUIsForSorted(t *testing.T) {
	ouis := OUIsFor("Apple")
	if len(ouis) < 2 {
		t.Fatal("want multiple Apple OUIs")
	}
	for i := 1; i < len(ouis); i++ {
		if ouis[i] <= ouis[i-1] {
			t.Fatal("not sorted")
		}
	}
}

func TestRegistryConsistent(t *testing.T) {
	seen := make(map[uint32]bool)
	for _, e := range registry {
		if e.OUI > 0xffffff {
			t.Errorf("OUI %06x exceeds 24 bits", e.OUI)
		}
		if seen[e.OUI] {
			t.Errorf("duplicate OUI %06x", e.OUI)
		}
		seen[e.OUI] = true
		if e.Manufacturer == "" || e.Category == "" || e.Category == CatUnknown {
			t.Errorf("incomplete entry %+v", e)
		}
	}
}

func TestEveryCategoryHasARegistryEntry(t *testing.T) {
	have := make(map[Category]bool)
	for _, e := range registry {
		have[e.Category] = true
	}
	for _, c := range []Category{
		CatApple, CatODM, CatIntel, CatSmartPhone, CatSamsung, CatGateway,
		CatAsus, CatMisc, CatMicrosoft, CatInternetTV, CatGaming, CatWireless,
		CatVoIP, CatHP, CatHardware, CatVMware, CatRaspberryPi,
	} {
		if !have[c] {
			t.Errorf("category %q has no registered OUI", c)
		}
	}
	if !have[CatPrinter] {
		t.Error("printer category missing")
	}
}
