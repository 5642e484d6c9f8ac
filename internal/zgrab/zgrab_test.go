package zgrab

import (
	"strings"
	"testing"

	"repro/internal/services"
	"repro/internal/topo"
	"repro/internal/xmap"
)

// fixture returns a deployment of China Mobile broadband (the ISP with
// the richest service exposure) plus a prober attached to it.
func fixture(t *testing.T) (*topo.Deployment, *Prober) {
	t.Helper()
	dep, err := topo.Build(topo.Config{
		Seed: 31, Scale: 0.00003, WindowWidth: 10,
		MaxDevicesPerISP: 150, OnlyISPs: []int{13},
	})
	if err != nil {
		t.Fatal(err)
	}
	return dep, New(xmap.NewSimDriver(dep.Engine, dep.Edge))
}

func TestProbeMatchesGroundTruth(t *testing.T) {
	dep, p := fixture(t)
	devs := dep.ISPs[0].Devices
	withServices := 0
	for _, dev := range devs {
		res, err := p.ProbeDevice(dev.WANAddr, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, svc := range services.All {
			_, want := dev.Services[svc]
			got := res.Results[svc].Alive
			if want != got {
				t.Errorf("device %s (%s) service %s: alive=%v, ground truth %v",
					dev.WANAddr, dev.Vendor, svc, got, want)
			}
		}
		if len(dev.Services) > 0 {
			withServices++
		}
	}
	if withServices == 0 {
		t.Fatal("sample has no devices with services; enlarge fixture")
	}
}

func TestSoftwareExtraction(t *testing.T) {
	dep, p := fixture(t)
	checked := map[services.ID]bool{}
	for _, dev := range dep.ISPs[0].Devices {
		for svc, sw := range dev.Services {
			res, err := p.ProbeDevice(dev.WANAddr, []services.ID{svc})
			if err != nil {
				t.Fatal(err)
			}
			got := res.Results[svc]
			if !got.Alive {
				t.Errorf("%s on %s not alive", svc, dev.WANAddr)
				continue
			}
			switch svc {
			case services.SvcDNS, services.SvcFTP, services.SvcSSH, services.SvcHTTP80, services.SvcHTTP8080:
				if got.Software != sw {
					t.Errorf("%s software = %q, deployed %q", svc, got.Software, sw)
				}
			case services.SvcNTP:
				if got.Software != "NTPv4" {
					t.Errorf("NTP software = %q", got.Software)
				}
			}
			checked[svc] = true
		}
	}
	for _, svc := range []services.ID{services.SvcDNS, services.SvcHTTP8080} {
		if !checked[svc] {
			t.Errorf("fixture exposed no %s to verify", svc)
		}
	}
}

func TestVendorEvidence(t *testing.T) {
	dep, p := fixture(t)
	matched, withEvidence := 0, 0
	for _, dev := range dep.ISPs[0].Devices {
		if len(dev.Services) == 0 {
			continue
		}
		res, err := p.ProbeDevice(dev.WANAddr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Vendor == "" {
			continue
		}
		withEvidence++
		if res.Vendor == dev.Vendor {
			matched++
		}
	}
	if withEvidence == 0 {
		t.Skip("no vendor evidence in sample")
	}
	if matched*10 < withEvidence*8 {
		t.Errorf("vendor evidence matched %d/%d", matched, withEvidence)
	}
}

func TestLoginPageDetection(t *testing.T) {
	dep, p := fixture(t)
	for _, dev := range dep.ISPs[0].Devices {
		if _, ok := dev.Services[services.SvcHTTP80]; !ok {
			continue
		}
		res, err := p.ProbeDevice(dev.WANAddr, []services.ID{services.SvcHTTP80})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Results[services.SvcHTTP80].LoginPage {
			t.Errorf("management page on %s not flagged as login page", dev.WANAddr)
		}
		return
	}
	t.Skip("no HTTP-80 device in sample")
}

func TestDeadDeviceAllSilent(t *testing.T) {
	dep, p := fixture(t)
	var quiet *topo.Device
	for _, dev := range dep.ISPs[0].Devices {
		if len(dev.Services) == 0 {
			quiet = dev
			break
		}
	}
	if quiet == nil {
		t.Skip("every device has services")
	}
	res, err := p.ProbeDevice(quiet.WANAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.AliveCount() != 0 {
		t.Errorf("service-less device reported %d alive services", res.AliveCount())
	}
}

func TestStripTelnetIAC(t *testing.T) {
	in := []byte{255, 251, 1, 255, 251, 3, 'h', 'i'}
	if got := stripTelnetIAC(in); got != "hi" {
		t.Errorf("stripTelnetIAC = %q", got)
	}
}

func TestCutBetween(t *testing.T) {
	if v, ok := cutBetween("CN=Acme router,O=Acme", "O=", ","); !ok || v != "Acme" {
		t.Errorf("cutBetween = %q,%v", v, ok)
	}
	if v, ok := cutBetween("CN=Acme router", "CN=", " router"); !ok || v != "Acme" {
		t.Errorf("cutBetween = %q,%v", v, ok)
	}
	if _, ok := cutBetween("nothing", "O=", ","); ok {
		t.Error("cutBetween matched absent marker")
	}
}

// TestBannerParsers: each parser's verdict and evidence for greetings a
// device may send, odd ones included.
func TestBannerParsers(t *testing.T) {
	for _, tc := range []struct {
		name             string
		parse            bannerParser
		banner           string
		software, vendor string
		ok               bool
	}{
		{"ftp", parseFTP, "220 (vsFTPd 3.0.3)\r\n", "vsFTPd 3.0.3", "", true},
		{"ftp-bare", parseFTP, "220 ready\r\n", "", "", true},
		{"ftp-unclosed", parseFTP, "220 (vsFTPd", "", "", true},
		{"ftp-refused", parseFTP, "421 busy\r\n", "", "", false},
		{"ssh", parseSSH, "SSH-2.0-dropbear_2019.78\r\n", "dropbear_2019.78", "", true},
		{"ssh-comment", parseSSH, "SSH-2.0-OpenSSH_8.2p1 Ubuntu-4\r\n", "OpenSSH_8.2p1", "", true},
		{"ssh-empty-software", parseSSH, "SSH-2.0-\r\n", "", "", true},
		{"ssh-blank-software", parseSSH, "SSH-2.0- \t\r\n", "", "", true},
		{"ssh-1.99", parseSSH, "SSH-1.99-Cisco-1.25\r\n", "", "", true},
		{"ssh-not", parseSSH, "HTTP/1.0 400\r\n", "", "", false},
		{"telnet", parseTelnet, "HG6543C\r\nYouhua Tech login: ", "HG6543C", "Youhua Tech", true},
		{"telnet-bare", parseTelnet, " login:", "login:", "", true},
		{"telnet-no-prompt", parseTelnet, "welcome\r\n", "", "", false},
		{"empty", parseSSH, "", "", "", false},
	} {
		software, vendor, ok := tc.parse([]byte(tc.banner))
		if software != tc.software || vendor != tc.vendor || ok != tc.ok {
			t.Errorf("%s: %q parses to (%q, %q, %v), want (%q, %q, %v)",
				tc.name, tc.banner, software, vendor, ok, tc.software, tc.vendor, tc.ok)
		}
	}
}

func TestTelnetVendorParsing(t *testing.T) {
	banner := append([]byte{255, 251, 1}, []byte("HG6543C\r\nYouhua Tech login: ")...)
	software, vendor, ok := parseTelnet(banner)
	if !ok || vendor != "Youhua Tech" {
		t.Errorf("vendor = %q (ok %v)", vendor, ok)
	}
	if !strings.Contains(software, "HG6543C") {
		t.Errorf("software = %q", software)
	}
}

// TestProbeDeviceAllocs pins what probing all eight services of a
// device allocates over SimDriver, averaged over the fixture's 150
// devices: 6.8. The prober builds and parses its packets in reused
// buffers, its constant requests are marshalled once, and the driver
// recycles each drain; inside the engine the device parses each packet
// once into its node's Summary, its stack answers into an engine
// buffer, and its DNS forwarder reads the query in place. What is left
// is zgrab's DeviceResult, the banners and responses Exchange copies
// out, the strings the results carry, and the other simulated services'
// own application parsing. A forwarder that parsed each query with
// dnswire.Parse and marshalled a fresh message cost 8.5; HTTP's
// request line through a string and strings.Fields cost 9.5; a stack
// that re-parsed each packet with ParsePacket and built its replies
// afresh cost 29.4; building, parsing and HMAC-keying every segment
// afresh on the prober's side too cost 80.5.
func TestProbeDeviceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	dep, p := fixture(t)
	devs := dep.ISPs[0].Devices
	allocs := testing.AllocsPerRun(5, func() {
		for _, dev := range devs {
			if _, err := p.ProbeDevice(dev.WANAddr, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	perDevice := allocs / float64(len(devs))
	t.Logf("ProbeDevice allocates %.2f times per device over %d devices", perDevice, len(devs))
	if perDevice > 7 {
		t.Errorf("ProbeDevice allocates %.1f times per device over %d devices, want <= 7", perDevice, len(devs))
	}
}
