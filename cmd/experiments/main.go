// Command experiments regenerates every table and figure of the paper's
// evaluation against the simulated deployments and prints them in order.
//
//	experiments              # full default-scale run (~1/4096 population)
//	experiments -quick       # the small configuration the tests use
//	experiments -run tableII # a single artifact
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run executes one CLI invocation. Flags live on a private FlagSet and
// all output goes through the writer arguments, so tests drive the
// command end to end without process-global state.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick   = fs.Bool("quick", false, "run the small test-sized configuration")
		only    = fs.String("run", "", "run one artifact: tableI..tableXII, figure2..figure6, mitigation, feasibility")
		seed    = fs.Int64("seed", 0, "override the suite seed (0 keeps the default)")
		scale   = fs.Float64("scale", 0, "override the population scale (e.g. 0.001 for 1/1000 of the paper)")
		width   = fs.Int("width", 0, "override the scan window width in bits")
		verbose = fs.Bool("v", false, "log progress to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := experiments.Default()
	if *quick {
		opts = experiments.Quick()
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	if *scale != 0 {
		opts.Scale = *scale
		opts.MaxDevicesPerISP = 0
	}
	if *width != 0 {
		opts.WindowWidth = *width
	}
	if *verbose {
		opts.Log = stderr
	}
	suite := experiments.New(opts)

	if *only == "" {
		text, err := suite.All()
		fmt.Fprint(stdout, text)
		return err
	}

	artifacts := map[string]func() (string, error){
		"tablei":      suite.TableI,
		"tableii":     func() (string, error) { t, _, err := suite.TableII(); return t, err },
		"tableiii":    func() (string, error) { t, _, err := suite.TableIII(); return t, err },
		"tableiv":     suite.TableIV,
		"tablev":      func() (string, error) { t, _, err := suite.TableV(); return t, err },
		"tablevi":     suite.TableVI,
		"tablevii":    func() (string, error) { t, _, err := suite.TableVII(); return t, err },
		"tableviii":   suite.TableVIII,
		"figure2":     suite.Figure2,
		"figure3":     suite.Figure3,
		"tableix":     func() (string, error) { t, _, err := suite.TableIX(); return t, err },
		"tablex":      func() (string, error) { t, _, err := suite.TableX(); return t, err },
		"figure5":     suite.Figure5,
		"tablexi":     func() (string, error) { t, _, err := suite.TableXI(); return t, err },
		"figure6":     suite.Figure6,
		"tablexii":    func() (string, error) { t, _, err := suite.TableXII(); return t, err },
		"mitigation":  suite.Mitigation,
		"feasibility": suite.Feasibility,
	}
	fn, ok := artifacts[strings.ToLower(*only)]
	if !ok {
		names := make([]string, 0, len(artifacts))
		for n := range artifacts {
			names = append(names, n)
		}
		return fmt.Errorf("unknown artifact %q (have: %s)", *only, strings.Join(names, ", "))
	}
	text, err := fn()
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, text)
	return nil
}
