package zgrab

import "testing"

// FuzzBannerParsers feeds arbitrary banners to the FTP, SSH and TELNET
// parsers: a device's greeting is outside input, so no banner may panic
// the prober, and a banner a parser rejects reports no evidence.
func FuzzBannerParsers(f *testing.F) {
	for _, seed := range []string{
		"220 (vsFTPd 3.0.3)\r\n", "SSH-2.0-\r\n", "SSH-2.0-dropbear_2019.78\r\n",
		"\xff\xfb\x01HG6543C\r\nYouhua Tech login: ", " login:", "",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, banner []byte) {
		for name, parse := range map[string]bannerParser{"ftp": parseFTP, "ssh": parseSSH, "telnet": parseTelnet} {
			software, vendor, ok := parse(banner)
			if !ok && (software != "" || vendor != "") {
				t.Errorf("%s rejected %q but reported software %q, vendor %q", name, banner, software, vendor)
			}
		}
	})
}
