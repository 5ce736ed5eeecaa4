package testgen

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Text vector format. Worst-case tests leave the flow as pattern files a
// test engineer can load, diff and edit — a minimal ATE-style format:
//
//	# optional comments
//	test NAME
//	cond vdd=1.80 temp=25 clock=100
//	W 0004 DEADBEEF
//	R 0008
//	N
//	end
//
// Addresses and data are hexadecimal; W is a write (address, data), R a
// read (address), N an idle cycle. Multiple tests may follow each other in
// one file.

// WriteTests serializes tests to the text vector format.
func WriteTests(w io.Writer, tests []Test) error {
	bw := bufio.NewWriter(w)
	for _, t := range tests {
		if strings.ContainsAny(t.Name, "\n\r") {
			return fmt.Errorf("testgen: test name %q contains a newline", t.Name)
		}
		if t.Name == "" {
			return fmt.Errorf("testgen: cannot serialize an unnamed test")
		}
		fmt.Fprintf(bw, "test %s\n", t.Name)
		fmt.Fprintf(bw, "cond vdd=%.4g temp=%.4g clock=%.5g\n",
			t.Cond.VddV, t.Cond.TempC, t.Cond.ClockMHz)
		for _, v := range t.Seq {
			switch v.Op {
			case OpWrite:
				fmt.Fprintf(bw, "W %X %X\n", v.Addr, v.Data)
			case OpRead:
				fmt.Fprintf(bw, "R %X\n", v.Addr)
			case OpNop:
				fmt.Fprintln(bw, "N")
			default:
				return fmt.Errorf("testgen: test %s: unknown op %d", t.Name, v.Op)
			}
		}
		fmt.Fprintln(bw, "end")
	}
	return bw.Flush()
}
