package analysis

import (
	"sort"
	"strconv"

	"repro/internal/ipv6"
	"repro/internal/loopscan"
	"repro/internal/registry"
)

// TableIXResult summarizes the BGP-universe sweep (Table IX): observed
// last hops and the loop-vulnerable subset, each with distinct-AS and
// distinct-country footprints.
type TableIXResult struct {
	TotalHops     int
	TotalASNs     int
	TotalCountry  int
	LoopHops      int
	LoopASNs      int
	LoopCountries int
}

// BuildTableIX aggregates a loop sweep against the geolocation database.
func BuildTableIX(res *loopscan.ScanResult, geo *registry.GeoDB) TableIXResult {
	allAS, allCC := map[int]bool{}, map[string]bool{}
	loopAS, loopCC := map[int]bool{}, map[string]bool{}
	out := TableIXResult{}
	for _, hop := range res.Hops {
		out.TotalHops++
		entry, ok := geo.Lookup(hop.Addr)
		if ok {
			allAS[entry.ASN] = true
			allCC[entry.Country] = true
		}
		if hop.Vulnerable {
			out.LoopHops++
			if ok {
				loopAS[entry.ASN] = true
				loopCC[entry.Country] = true
			}
		}
	}
	out.TotalASNs, out.TotalCountry = len(allAS), len(allCC)
	out.LoopASNs, out.LoopCountries = len(loopAS), len(loopCC)
	return out
}

// BuildTableX is the IID mix of loop-vulnerable last hops.
func BuildTableX(res *loopscan.ScanResult) IIDDist {
	d := IIDDist{Counts: make(map[ipv6.IIDClass]int)}
	for _, hop := range res.Hops {
		if !hop.Vulnerable {
			continue
		}
		d.Counts[ipv6.Classify(hop.Addr)]++
		d.Total++
	}
	return d
}

// RankedKey is a generic ranked label/count pair (Figure 5's bars).
type RankedKey struct {
	Label string
	Count int
}

// Figure5Result ranks loop devices by origin AS and country.
type Figure5Result struct {
	TopASNs      []RankedKey
	TopCountries []RankedKey
}

// BuildFigure5 computes the Figure 5 rankings (top n each).
func BuildFigure5(res *loopscan.ScanResult, geo *registry.GeoDB, n int) Figure5Result {
	byAS, byCC := map[string]int{}, map[string]int{}
	for _, hop := range res.Hops {
		if !hop.Vulnerable {
			continue
		}
		if entry, ok := geo.Lookup(hop.Addr); ok {
			byAS[asnLabel(entry.ASN)]++
			byCC[entry.Country]++
		}
	}
	return Figure5Result{
		TopASNs:      topRanked(byAS, n),
		TopCountries: topRanked(byCC, n),
	}
}

func asnLabel(asn int) string { return "AS" + strconv.Itoa(asn) }

func topRanked(m map[string]int, n int) []RankedKey {
	out := make([]RankedKey, 0, len(m))
	for k, v := range m {
		out = append(out, RankedKey{Label: k, Count: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Label < out[j].Label
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// TableXIRow is one ISP's loop census (Table XI).
type TableXIRow struct {
	ISPIndex int
	Unique   int
	SamePct  float64
	DiffPct  float64
}

// BuildTableXI aggregates per-ISP loop sweeps; loops maps ISP index to
// its sweep result.
func BuildTableXI(loops map[int]*loopscan.ScanResult) []TableXIRow {
	var rows []TableXIRow
	for isp, res := range loops {
		row := TableXIRow{ISPIndex: isp}
		var same, diff int
		for _, hop := range res.Hops {
			if !hop.Vulnerable {
				continue
			}
			row.Unique++
			same += hop.SameCount
			diff += hop.DiffCount
		}
		if same+diff > 0 {
			row.SamePct = 100 * float64(same) / float64(same+diff)
			row.DiffPct = 100 - row.SamePct
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ISPIndex < rows[j].ISPIndex })
	return rows
}

// Figure6Result is the loop vendor/AS matrix: per top vendor, the device
// counts within each top AS.
type Figure6Result struct {
	Vendors []string
	ASNs    []string
	// Counts[vendor][asn] -> devices.
	Counts map[string]map[string]int
	// VendorTotals across all ASes.
	VendorTotals map[string]int
}

// LoopDeviceEvidence pairs a vulnerable hop with its attribution inputs.
type LoopDeviceEvidence struct {
	Addr   ipv6.Addr
	Vendor string // from EUI-64 OUI or application evidence; may be ""
	ASN    int
}

// BuildFigure6 ranks the top nVendor vendors and nAS ASes among
// vulnerable devices and cross-tabulates them.
func BuildFigure6(devices []LoopDeviceEvidence, nVendor, nAS int) Figure6Result {
	vTotals, aTotals := map[string]int{}, map[string]int{}
	for _, d := range devices {
		if d.Vendor == "" {
			continue
		}
		vTotals[d.Vendor]++
		aTotals[asnLabel(d.ASN)]++
	}
	top := topRanked(vTotals, nVendor)
	topAS := topRanked(aTotals, nAS)

	res := Figure6Result{
		Counts:       map[string]map[string]int{},
		VendorTotals: vTotals,
	}
	for _, v := range top {
		res.Vendors = append(res.Vendors, v.Label)
		res.Counts[v.Label] = map[string]int{}
	}
	for _, a := range topAS {
		res.ASNs = append(res.ASNs, a.Label)
	}
	inTop := func(list []string, s string) bool {
		for _, x := range list {
			if x == s {
				return true
			}
		}
		return false
	}
	for _, d := range devices {
		if d.Vendor == "" || !inTop(res.Vendors, d.Vendor) {
			continue
		}
		label := asnLabel(d.ASN)
		if !inTop(res.ASNs, label) {
			continue
		}
		res.Counts[d.Vendor][label]++
	}
	return res
}
