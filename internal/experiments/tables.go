package experiments

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/ipv6"
	"repro/internal/netsim"
	"repro/internal/report"
	"repro/internal/services"
	"repro/internal/topo"
	"repro/internal/xmap"
	"repro/internal/zgrab"
)

// specByIndex resolves a Table VII ISP index.
func specByIndex(index int) *topo.ISPSpec {
	for i := range topo.Specs {
		if topo.Specs[i].Index == index {
			return &topo.Specs[i]
		}
	}
	return nil
}

// iidClasses is the rendering order of the IID tables.
var iidClasses = []ipv6.IIDClass{
	ipv6.IIDEUI64, ipv6.IIDLowByte, ipv6.IIDEmbedIPv4,
	ipv6.IIDBytePattern, ipv6.IIDRandomized,
}

// renderIIDDist renders a Table III/V/X-style distribution.
func renderIIDDist(title string, d analysis.IIDDist) string {
	t := report.Table{Title: title, Headers: []string{"IID class", "# num", "%"}}
	for _, c := range iidClasses {
		t.AddRow(c.String(), report.Count(d.Counts[c]), report.Pct(d.Pct(c)))
	}
	t.AddRow("Total", report.Count(d.Total), "100.0")
	return t.String()
}

// TableI reproduces the inferred sub-prefix lengths.
func (s *Suite) TableI() (string, error) {
	results, err := s.SubnetInference()
	if err != nil {
		return "", err
	}
	dep, err := s.Deployment()
	if err != nil {
		return "", err
	}
	t := report.Table{
		Title:   "Table I: inferred IPv6 sub-prefix length for end-users of target ISPs",
		Headers: []string{"Cty", "Network", "ISP", "ASN", "Block", "Inferred", "Paper"},
	}
	for i, isp := range dep.ISPs {
		spec := isp.Spec
		inferred := "?"
		if i < len(results) && results[i].Length > 0 {
			inferred = fmt.Sprintf("/%d", results[i].Length)
		}
		t.AddRow(spec.Country, spec.Network.String(), spec.Name,
			fmt.Sprintf("%d", spec.ASN), fmt.Sprintf("/%d", spec.BlockLen),
			inferred, fmt.Sprintf("/%d", spec.DelegLen))
	}
	return t.String(), nil
}

// TableII reproduces the periphery scan census.
func (s *Suite) TableII() (string, []analysis.TableIIRow, error) {
	recs, stats, err := s.Discovery()
	if err != nil {
		return "", nil, err
	}
	rows := analysis.BuildTableII(recs)
	t := report.Table{
		Title: "Table II: results of periphery scanning for one sample IPv6 block within each ISP",
		Headers: []string{"P", "ISP", "Scan", "LastHops", "%same", "%diff",
			"/64 uniq", "/64 %", "EUI-64", "EUI %", "MAC uniq", "MAC %"},
	}
	for _, row := range rows {
		spec := specByIndex(row.ISPIndex)
		name := "?"
		scanRange := "?"
		if spec != nil {
			name = spec.Name
			scanRange = fmt.Sprintf("/%d-%d", spec.BlockLen, spec.DelegLen)
		}
		t.AddRow(
			fmt.Sprintf("%d", row.ISPIndex), name, scanRange,
			report.Count(row.UniqueHops),
			report.Pct(row.SamePct), report.Pct(row.DiffPct),
			report.Count(row.Unique64), report.Pct(row.Pct64),
			report.Count(row.EUI64), report.Pct(row.EUI64Pct),
			report.Count(row.UniqueMAC), report.Pct(row.MACPct),
		)
	}
	var sent uint64
	for _, st := range stats {
		sent += st.Sent
	}
	text := t.String() + fmt.Sprintf("(probes sent: %s)\n", report.Count(int(sent)))
	return text, rows, nil
}

// TableIII reproduces the all-periphery IID mix.
func (s *Suite) TableIII() (string, analysis.IIDDist, error) {
	recs, err := s.Peripheries()
	if err != nil {
		return "", analysis.IIDDist{}, err
	}
	d := analysis.BuildTableIII(recs)
	return renderIIDDist("Table III: IID analysis of discovered peripheries", d), d, nil
}

// TableIV reproduces the vendor census.
func (s *Suite) TableIV() (string, error) {
	if err := s.ServiceGrabs(); err != nil {
		return "", err
	}
	recs, err := s.Peripheries()
	if err != nil {
		return "", err
	}
	cpe, ue := analysis.BuildTableIV(recs)
	var b strings.Builder
	renderVC := func(title string, list []analysis.VendorCount, max int) {
		t := report.Table{Title: title, Headers: []string{"Vendor", "Devices"}}
		total := 0
		for _, vc := range list {
			total += vc.Count
		}
		t.AddRow("Total", report.Count(total))
		for i, vc := range list {
			if max > 0 && i >= max {
				break
			}
			t.AddRow(vc.Vendor, report.Count(vc.Count))
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	b.WriteString("Table IV: top appeared periphery vendors and device number\n")
	renderVC("CPE vendors", cpe, 20)
	renderVC("UE vendors", ue, 12)
	return b.String(), nil
}

// TableV reproduces the IID mix of service-exposing peripheries.
func (s *Suite) TableV() (string, analysis.IIDDist, error) {
	if err := s.ServiceGrabs(); err != nil {
		return "", analysis.IIDDist{}, err
	}
	recs, err := s.Peripheries()
	if err != nil {
		return "", analysis.IIDDist{}, err
	}
	d := analysis.BuildTableV(recs)
	return renderIIDDist("Table V: IID analysis of peripheries with alive application services", d), d, nil
}

// tableVISpec is the probe/response definition of Table VI.
var tableVISpec = []struct {
	svc      services.ID
	request  string
	response string
}{
	{services.SvcDNS, `"A" or version query`, "answers"},
	{services.SvcNTP, "version query", "version reply"},
	{services.SvcFTP, "request for connecting", "successful response"},
	{services.SvcSSH, "version, key request", "version, key"},
	{services.SvcTelnet, "request for login", "response for login"},
	{services.SvcHTTP80, "HTTP GET request", "header, version, body"},
	{services.SvcTLS, "certificate request", "certificate, cipher suite"},
	{services.SvcHTTP8080, "HTTP GET request", "header, version, body"},
}

// TableVI verifies each probe's request/response conformance against a
// reference device exposing all eight services: one CPE behind the
// scanner's edge, probed through the node path the census takes.
func (s *Suite) TableVI() (string, error) {
	self := ipv6.MustParseAddr("2001:db8::1")
	stack := services.NewStack(services.Config{
		Vendor: "Reference",
		Software: map[services.ID]string{
			services.SvcDNS: "dnsmasq-2.45", services.SvcNTP: "NTPv4",
			services.SvcFTP: "GNU Inetutils 1.4.1", services.SvcSSH: "dropbear_0.46",
			services.SvcTelnet: "reference", services.SvcHTTP80: "micro_httpd",
			services.SvcTLS: "embedded", services.SvcHTTP8080: "Jetty 6.1.26",
		},
	}, []byte("table6"))
	cpe := netsim.NewCPE(netsim.CPEConfig{
		Name: "reference", WANAddr: self, WANPrefix: ipv6.MustParsePrefix("2001:db8::/64"), Stack: stack,
	})
	eng := netsim.New()
	edge := netsim.NewEdge("scanner", ipv6.MustParseAddr("2001:beef::9"))
	eng.Connect(edge.Iface(), cpe.WAN())
	prober := zgrab.New(xmap.NewSimDriver(eng, edge))
	res, err := prober.ProbeDevice(self, nil)
	if err != nil {
		return "", err
	}
	t := report.Table{
		Title:   "Table VI: probing requests and valid responses of 8 selected services",
		Headers: []string{"Service/Port", "Request", "Valid Response", "Conforms"},
	}
	for _, row := range tableVISpec {
		ok := "no"
		if r, found := res.Results[row.svc]; found && r.Alive {
			ok = "yes"
		}
		t.AddRow(row.svc.String(), row.request, row.response, ok)
	}
	return t.String(), nil
}

// TableVII reproduces the per-ISP exposure census.
func (s *Suite) TableVII() (string, []analysis.TableVIIRow, error) {
	if err := s.ServiceGrabs(); err != nil {
		return "", nil, err
	}
	recs, err := s.Peripheries()
	if err != nil {
		return "", nil, err
	}
	rows := analysis.BuildTableVII(recs)
	headers := []string{"P", "ISP"}
	for _, svc := range services.All {
		headers = append(headers, svc.String(), "%")
	}
	headers = append(headers, "Total", "%")
	t := report.Table{
		Title:   "Table VII: results of alive services on peripheries within each ISP",
		Headers: headers,
	}
	for _, row := range rows {
		name := "?"
		if spec := specByIndex(row.ISPIndex); spec != nil {
			name = spec.Name
		}
		cells := []string{fmt.Sprintf("%d", row.ISPIndex), name}
		for _, svc := range services.All {
			cells = append(cells, report.Count(row.Alive[svc]), report.Pct(row.Pct(svc)))
		}
		cells = append(cells, report.Count(row.Total), report.Pct(row.TotalPct()))
		t.AddRow(cells...)
	}
	return t.String(), rows, nil
}

// TableVIII reproduces the software-version census.
func (s *Suite) TableVIII() (string, error) {
	if err := s.ServiceGrabs(); err != nil {
		return "", err
	}
	recs, err := s.Peripheries()
	if err != nil {
		return "", err
	}
	sw := analysis.BuildTableVIII(recs)
	t := report.Table{
		Title:   "Table VIII: top software version and device number of crucial services",
		Headers: []string{"Service", "Software & version", "# device", "# CVE"},
	}
	for _, svc := range []services.ID{services.SvcDNS, services.SvcHTTP80, services.SvcHTTP8080, services.SvcSSH, services.SvcFTP} {
		for i, sc := range sw[svc] {
			if i >= 5 {
				break
			}
			t.AddRow(svc.String(), sc.Software, report.Count(sc.Count), fmt.Sprintf("%d", sc.CVEs))
		}
	}
	return t.String(), nil
}

// Figure2 reproduces the top-10 exposed-service vendor chart.
func (s *Suite) Figure2() (string, error) {
	if err := s.ServiceGrabs(); err != nil {
		return "", err
	}
	recs, err := s.Peripheries()
	if err != nil {
		return "", err
	}
	m := analysis.BuildVendorServiceMatrix(recs)
	top := m.TopVendors(10)
	var b strings.Builder
	b.WriteString("Figure 2: top 10 periphery device vendors with exposed services\n")
	t := report.Table{Headers: append([]string{"Vendor", "Total"}, svcHeaderCells()...)}
	for _, vc := range top {
		cells := []string{vc.Vendor, report.Count(vc.Count)}
		for _, svc := range services.All {
			cells = append(cells, report.Count(m.Counts[vc.Vendor][svc]))
		}
		t.AddRow(cells...)
	}
	b.WriteString(t.String())
	return b.String(), nil
}

func svcHeaderCells() []string {
	out := make([]string, 0, len(services.All))
	for _, svc := range services.All {
		out = append(out, svc.String())
	}
	return out
}

// Figure3 reproduces the per-service vendor breakdown.
func (s *Suite) Figure3() (string, error) {
	if err := s.ServiceGrabs(); err != nil {
		return "", err
	}
	recs, err := s.Peripheries()
	if err != nil {
		return "", err
	}
	m := analysis.BuildVendorServiceMatrix(recs)
	var b strings.Builder
	b.WriteString("Figure 3: top periphery device vendors within each service\n")
	for _, svc := range services.All {
		ranked := m.TopVendorsWithin(svc, 5)
		if len(ranked) == 0 {
			continue
		}
		labels := make([]string, len(ranked))
		values := make([]int, len(ranked))
		for i, vc := range ranked {
			labels[i], values[i] = vc.Vendor, vc.Count
		}
		b.WriteString((report.Bars{Title: svc.String(), Width: 30}).Render(labels, values))
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// TableIX reproduces the BGP-universe loop census.
func (s *Suite) TableIX() (string, analysis.TableIXResult, error) {
	dep, scan, err := s.BGP()
	if err != nil {
		return "", analysis.TableIXResult{}, err
	}
	res := analysis.BuildTableIX(scan, dep.Geo)
	t := report.Table{
		Title:   "Table IX: peripheries discovered from BGP advertised prefixes scanning",
		Headers: []string{"Last Hops", "# unique", "# ASN", "# Country"},
	}
	t.AddRow("Total", report.Count(res.TotalHops), report.Count(res.TotalASNs), report.Count(res.TotalCountry))
	t.AddRow("with Routing Loop", report.Count(res.LoopHops), report.Count(res.LoopASNs), report.Count(res.LoopCountries))
	return t.String(), res, nil
}

// TableX reproduces the loop-device IID mix.
func (s *Suite) TableX() (string, analysis.IIDDist, error) {
	_, scan, err := s.BGP()
	if err != nil {
		return "", analysis.IIDDist{}, err
	}
	d := analysis.BuildTableX(scan)
	return renderIIDDist("Table X: IID analysis of last hops with routing loop vulnerability", d), d, nil
}

// Figure5 reproduces the top loop ASNs and countries.
func (s *Suite) Figure5() (string, error) {
	dep, scan, err := s.BGP()
	if err != nil {
		return "", err
	}
	res := analysis.BuildFigure5(scan, dep.Geo, 10)
	var b strings.Builder
	b.WriteString("Figure 5: top 10 routing loop ASN & country\n")
	labels := make([]string, len(res.TopASNs))
	values := make([]int, len(res.TopASNs))
	for i, r := range res.TopASNs {
		labels[i], values[i] = r.Label, r.Count
	}
	b.WriteString((report.Bars{Title: "Origin ASN", Width: 30}).Render(labels, values))
	labels = labels[:0]
	values = values[:0]
	for _, r := range res.TopCountries {
		labels = append(labels, r.Label)
		values = append(values, r.Count)
	}
	b.WriteString((report.Bars{Title: "Origin Country", Width: 30}).Render(labels, values))
	return b.String(), nil
}

// TableXI reproduces the per-ISP loop census.
func (s *Suite) TableXI() (string, []analysis.TableXIRow, error) {
	loops, err := s.LoopISP()
	if err != nil {
		return "", nil, err
	}
	rows := analysis.BuildTableXI(loops)
	t := report.Table{
		Title:   "Table XI: results of periphery with routing loop within each ISP",
		Headers: []string{"P", "ISP", "# uniq", "% same", "% diff"},
	}
	for _, row := range rows {
		name := "?"
		if spec := specByIndex(row.ISPIndex); spec != nil {
			name = spec.Name
		}
		t.AddRow(fmt.Sprintf("%d", row.ISPIndex), name,
			report.Count(row.Unique), report.Pct(row.SamePct), report.Pct(row.DiffPct))
	}
	return t.String(), rows, nil
}

// Figure6 reproduces the loop vendor/AS matrix over the ISP deployments.
func (s *Suite) Figure6() (string, error) {
	loops, err := s.LoopISP()
	if err != nil {
		return "", err
	}
	dep, err := s.Deployment()
	if err != nil {
		return "", err
	}
	var evidence []analysis.LoopDeviceEvidence
	for _, res := range loops {
		for _, hop := range res.Hops {
			if !hop.Vulnerable {
				continue
			}
			ev := analysis.LoopDeviceEvidence{Addr: hop.Addr}
			if entry, ok := dep.Geo.Lookup(hop.Addr); ok {
				ev.ASN = entry.ASN
			}
			if mac, ok := ipv6.MACFromEUI64(hop.Addr.IID()); ok {
				if vendor, ok := dep.OUI.VendorOfMAC(mac); ok {
					ev.Vendor = vendor
				}
			}
			if ev.Vendor == "" {
				// Application-level attribution, as the paper does for
				// non-EUI-64 loop devices.
				prober := zgrab.New(xmap.NewSimDriver(dep.Engine, dep.Edge))
				grab, err := prober.ProbeDevice(hop.Addr, []services.ID{services.SvcHTTP80, services.SvcHTTP8080, services.SvcTLS})
				if err == nil && grab.Vendor != "" {
					ev.Vendor = grab.Vendor
				}
			}
			evidence = append(evidence, ev)
		}
	}
	res := analysis.BuildFigure6(evidence, 5, 5)
	t := report.Table{
		Title:   "Figure 6: top 5 routing loop periphery device vendors within top 5 ASes",
		Headers: append([]string{"Vendor", "Total"}, res.ASNs...),
	}
	for _, vendor := range res.Vendors {
		cells := []string{vendor, report.Count(res.VendorTotals[vendor])}
		for _, asn := range res.ASNs {
			cells = append(cells, report.Count(res.Counts[vendor][asn]))
		}
		t.AddRow(cells...)
	}
	return t.String(), nil
}

// TableXII reproduces the lab router case study.
func (s *Suite) TableXII() (string, []LabOutcome, error) {
	outcomes, err := s.Lab()
	if err != nil {
		return "", nil, err
	}
	t := report.Table{
		Title:   "Table XII: routing loop routers testing results",
		Headers: []string{"Brand", "Model", "Firmware", "WAN", "LAN", "LoopTimes"},
	}
	mark := func(v bool) string {
		if v {
			return "vuln"
		}
		return "ok"
	}
	shown := 0
	for _, o := range outcomes {
		// Print the named models and the OSes; summarize the bulk units.
		if strings.Contains(o.Router.Model, "-unit-") {
			continue
		}
		t.AddRow(o.Router.Brand, o.Router.Model, o.Router.Firmware,
			mark(o.VulnWAN), mark(o.VulnLAN), report.Count(int(o.LoopTimes)))
		shown++
	}
	vulnAll := 0
	for _, o := range outcomes {
		if o.VulnWAN || o.VulnLAN {
			vulnAll++
		}
	}
	text := t.String() + fmt.Sprintf("(%d of %d routers vulnerable; %d shown above, remainder are per-brand units)\n",
		vulnAll, len(outcomes), shown)
	return text, outcomes, nil
}

// All runs every experiment and concatenates the rendered artifacts.
func (s *Suite) All() (string, error) {
	var b strings.Builder
	sections := []func() (string, error){
		s.TableI,
		func() (string, error) { t, _, err := s.TableII(); return t, err },
		func() (string, error) { t, _, err := s.TableIII(); return t, err },
		s.TableIV,
		func() (string, error) { t, _, err := s.TableV(); return t, err },
		s.TableVI,
		func() (string, error) { t, _, err := s.TableVII(); return t, err },
		s.TableVIII,
		s.Figure2,
		s.Figure3,
		func() (string, error) { t, _, err := s.TableIX(); return t, err },
		func() (string, error) { t, _, err := s.TableX(); return t, err },
		s.Figure5,
		func() (string, error) { t, _, err := s.TableXI(); return t, err },
		s.Figure6,
		func() (string, error) { t, _, err := s.TableXII(); return t, err },
		s.Mitigation,
		s.Feasibility,
	}
	for _, fn := range sections {
		text, err := fn()
		if err != nil {
			return b.String(), err
		}
		b.WriteString(text)
		b.WriteString("\n")
	}
	return b.String(), nil
}
