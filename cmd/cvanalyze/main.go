// Command cvanalyze runs the workload analyses of the paper: Figure 2 (shared
// dataset consumers), Figure 3 (subexpression overlap over time), Figure 8
// (generalized-reuse opportunity), and Figure 9 (concurrent joins).
//
// Usage:
//
//	cvanalyze -fig 2|3|8|9|all [-scale 0.5] [-days N]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"cloudviews/internal/experiments"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "cvanalyze %v\n", err)
		os.Exit(1)
	}
}

// run parses args, regenerates the selected figures and writes them to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("cvanalyze", flag.ExitOnError)
	fig := fs.String("fig", "all", "figure to regenerate: 2, 3, 8, 9, concurrent (§5.4 estimate), or all")
	scale := fs.Float64("scale", 0.5, "workload scale factor (1.0 = paper-sized clusters)")
	days := fs.Int("days", 0, "override window length in days (0 = per-figure default)")
	fs.Parse(args)

	figures := []struct {
		fig, name string
		render    func() (string, error)
	}{
		{"2", "figure 2", func() (string, error) {
			res, err := experiments.RunFigure2(*days, *scale)
			if err != nil {
				return "", err
			}
			return experiments.RenderFigure2(res), nil
		}},
		{"3", "figure 3", func() (string, error) {
			d := *days
			if d == 0 {
				d = 84 // 12 weeks by default; -days 304 for the full series
			}
			res, err := experiments.RunFigure3(d, *scale)
			if err != nil {
				return "", err
			}
			return experiments.RenderFigure3(res), nil
		}},
		{"8", "figure 8", func() (string, error) {
			res, err := experiments.RunFigure8(*days, *scale)
			if err != nil {
				return "", err
			}
			return experiments.RenderFigure8(res, 25), nil
		}},
		{"9", "figure 9", func() (string, error) {
			res, err := experiments.RunFigure9(*scale)
			if err != nil {
				return "", err
			}
			return experiments.RenderFigure9(res), nil
		}},
		{"concurrent", "concurrent opportunity", func() (string, error) {
			res, err := experiments.RunConcurrentOpportunity(*scale)
			if err != nil {
				return "", err
			}
			return experiments.RenderConcurrentOpportunity(res, 15), nil
		}},
	}
	for _, f := range figures {
		if *fig != "all" && *fig != f.fig {
			continue
		}
		start := time.Now()
		out, err := f.render()
		if err != nil {
			return fmt.Errorf("%s: %v", f.name, err)
		}
		fmt.Fprintln(w, out)
		fmt.Fprintf(w, "(%s done in %v)\n\n", f.name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
