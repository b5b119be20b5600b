// Package ouidb maps MAC OUIs (top 24 bits) to manufacturers and to the
// device-type taxonomy of Fig. 12. The paper's Traffic data set hashes the
// lower half of every MAC but keeps the OUI precisely so this lookup stays
// possible: "The first 24 bits allow us to look up the manufacturer" (§5.4).
//
// The embedded registry covers every manufacturer the paper names
// (Fig. 12 and its footnote) with representative real-world OUI
// assignments. It is deliberately small — a full IEEE registry is ~30k
// entries — because the synthetic device population only mints addresses
// from these vendors.
package ouidb

import (
	"sort"

	"natpeek/internal/mac"
)

// Category is the Fig. 12 x-axis taxonomy.
type Category string

// Categories, in the order Fig. 12 plots them.
const (
	CatApple       Category = "Apple"
	CatODM         Category = "ODM"
	CatIntel       Category = "Intel"
	CatSmartPhone  Category = "SmartPhone"
	CatSamsung     Category = "Samsung"
	CatGateway     Category = "Gateway"
	CatAsus        Category = "Asus"
	CatMisc        Category = "Misc."
	CatMicrosoft   Category = "Microsoft"
	CatInternetTV  Category = "InternetTV"
	CatGaming      Category = "Gaming"
	CatWireless    Category = "WirelessCard"
	CatVoIP        Category = "VoIP"
	CatHP          Category = "Hewlett-Packard"
	CatHardware    Category = "Hardware"
	CatVMware      Category = "VMware"
	CatRaspberryPi Category = "Raspberry-Pi"
	CatPrinter     Category = "Printer"
	CatUnknown     Category = "Unknown"
)

// Categories lists every Category, in the order Fig. 12 plots them.
var Categories = [...]Category{
	CatApple, CatODM, CatIntel, CatSmartPhone, CatSamsung, CatGateway,
	CatAsus, CatMisc, CatMicrosoft, CatInternetTV, CatGaming, CatWireless,
	CatVoIP, CatHP, CatHardware, CatVMware, CatRaspberryPi, CatPrinter,
	CatUnknown,
}

// Entry is one OUI registration.
type Entry struct {
	OUI          uint32
	Manufacturer string
	Category     Category
}

// registry lists representative OUIs for every vendor named in Fig. 12 and
// its footnote.
var registry = []Entry{
	// Apple.
	{0x001CB3, "Apple", CatApple},
	{0x0017F2, "Apple", CatApple},
	{0x28CFDA, "Apple", CatApple},
	{0x3C0754, "Apple", CatApple},
	{0x7CC3A1, "Apple", CatApple},
	{0xA4B197, "Apple", CatApple},
	{0xD8A25E, "Apple", CatApple},
	// ODMs: Compal, Hon Hai (Foxconn), Quanta, Universal Global Scientific,
	// Wistron InfoComm.
	{0x001A73, "Compal", CatODM},
	{0x0026F1, "Hon Hai Precision", CatODM},
	{0x001E68, "Quanta", CatODM},
	{0x00247E, "Universal Global Scientific", CatODM},
	{0x30144A, "Wistron InfoComm", CatODM},
	// Intel wireless cards in laptops.
	{0x001B77, "Intel", CatIntel},
	{0x0024D7, "Intel", CatIntel},
	{0x4C8093, "Intel", CatIntel},
	{0x8086F2, "Intel", CatIntel},
	// Smart phones: HTC, LG, Motorola, Nokia, Murata (Samsung Galaxy S II).
	{0x38E7D8, "HTC", CatSmartPhone},
	{0x001C62, "LG Electronics", CatSmartPhone},
	{0x001A1B, "Motorola", CatSmartPhone},
	{0x0021AB, "Nokia", CatSmartPhone},
	{0x001D25, "Murata", CatSmartPhone},
	// Samsung phones and tablets, shown separately in Fig. 12.
	{0x002454, "Samsung", CatSamsung},
	{0x5C0A5B, "Samsung", CatSamsung},
	{0x8C7712, "Samsung", CatSamsung},
	// Gateways: TP-Link, Realtek, Liteon, D-Link, Cisco-Linksys, Belkin,
	// Askey.
	{0x647002, "TP-Link", CatGateway},
	{0x00E04C, "Realtek", CatGateway},
	{0x001CBF, "Liteon", CatGateway},
	{0x001B11, "D-Link", CatGateway},
	{0x0018F8, "Cisco-Linksys", CatGateway},
	{0x001150, "Belkin", CatGateway},
	{0x0030B8, "Askey", CatGateway},
	// Asus, shown separately.
	{0x00248C, "Asus", CatAsus},
	{0xBCAEC5, "Asus", CatAsus},
	// Misc.: Polycom, Prolifix, Pegatron.
	{0x0004F2, "Polycom", CatMisc},
	{0x00117F, "Prolifix", CatMisc},
	{0x10C37B, "Pegatron", CatMisc},
	// Microsoft (possibly Xbox), shown separately.
	{0x0050F2, "Microsoft", CatMicrosoft},
	{0x7CED8D, "Microsoft", CatMicrosoft},
	// Internet TV: Roku, TiVo, ASRock.
	{0xB0A737, "Roku", CatInternetTV},
	{0x00119B, "TiVo", CatInternetTV},
	{0xBC5FF4, "ASRock", CatInternetTV},
	// Gaming: Nintendo, Mitsumi (controllers for PS/Xbox/Wii).
	{0x0019FD, "Nintendo", CatGaming},
	{0x0009BF, "Mitsumi", CatGaming},
	{0x001FE2, "Sony Computer Entertainment", CatGaming},
	// Wireless cards: AzureWave, GainSpan.
	{0x74F06D, "AzureWave", CatWireless},
	{0x20F85E, "GainSpan", CatWireless},
	// VoIP: UniData.
	{0x0009D2, "UniData", CatVoIP},
	// Hewlett-Packard.
	{0x002264, "Hewlett-Packard", CatHP},
	{0x3C4A92, "Hewlett-Packard", CatHP},
	// Hardware: Giga-Byte, Microchip.
	{0x001FD0, "Giga-Byte", CatHardware},
	{0x001EC0, "Microchip", CatHardware},
	// VMware virtual NICs.
	{0x005056, "VMware", CatVMware},
	// Raspberry Pi Foundation.
	{0xB827EB, "Raspberry-Pi", CatRaspberryPi},
	// Printer: Epson (the paper's one printer).
	{0x00264A, "Epson", CatPrinter},
	// Netgear: the BISmark router itself; the paper removes these from
	// Fig. 12 ("We have removed all references to Netgear originating from
	// our BISmark routers"), and analysis code does the same.
	{0x204E7F, "Netgear", CatGateway},
	{0xA021B7, "Netgear", CatGateway},
}

var byOUI = func() map[uint32]Entry {
	m := make(map[uint32]Entry, len(registry))
	for _, e := range registry {
		m[e.OUI] = e
	}
	return m
}()

// Lookup returns the registry entry for the address's OUI. Unregistered
// OUIs return an Entry with Manufacturer "" and Category CatUnknown.
func Lookup(a mac.Addr) Entry {
	if e, ok := byOUI[a.OUI()]; ok {
		return e
	}
	return Entry{OUI: a.OUI(), Category: CatUnknown}
}

// Manufacturer returns the manufacturer name for the address, or "" if
// unknown.
func Manufacturer(a mac.Addr) string { return Lookup(a).Manufacturer }

// IsBISmarkRouter reports whether the address belongs to Netgear — the
// platform's own hardware, which Fig. 12 excludes.
func IsBISmarkRouter(a mac.Addr) bool {
	return Lookup(a).Manufacturer == "Netgear"
}

// OUIsFor returns all registered OUIs for a manufacturer, sorted. The
// device generator uses this to mint addresses.
func OUIsFor(manufacturer string) []uint32 {
	var out []uint32
	for _, e := range registry {
		if e.Manufacturer == manufacturer {
			out = append(out, e.OUI)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
