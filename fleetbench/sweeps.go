package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"ctcomm/internal/sweep"
)

// rowKey is the digest of one NDJSON row with its provenance fields
// (index, cached, analytic) removed: two rows with equal keys carry the
// same answer for the same cell.
type rowKey [16]byte

// rowErrPrefix starts a normalized error row.
var rowErrPrefix = []byte(`"error":`)

// normalizeRow strips the leading provenance fields of an encoded
// sweep.Row. The encoder writes struct fields in order, so a row always
// starts {"index":N then optionally ,"cached":true and ,"analytic":true.
func normalizeRow(line []byte) ([]byte, error) {
	rest, ok := bytes.CutPrefix(bytes.TrimSpace(line), []byte(`{"index":`))
	if !ok {
		return nil, fmt.Errorf("not a sweep row: %.80s", line)
	}
	i := 0
	for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
		i++
	}
	rest = rest[i:]
	rest, _ = bytes.CutPrefix(rest, []byte(`,"cached":true`))
	rest, _ = bytes.CutPrefix(rest, []byte(`,"analytic":true`))
	rest, _ = bytes.CutPrefix(rest, []byte(`,`))
	return rest, nil
}

func keyOf(norm []byte) rowKey {
	s := sha256.Sum256(norm)
	var k rowKey
	copy(k[:], s[:])
	return k
}

// sweepResult is what one POST /v1/sweep got back. Times are offsets
// from the start of the phase.
type sweepResult struct {
	req   sweepReq
	code  int
	err   error
	keys  []rowKey // per row, in stream order
	isErr []bool   // per row: an error row
	sum   struct { // the done line
		Done  bool `json:"done"`
		Cells int  `json:"cells"`
	}
	sawDone           bool
	sent, first, done time.Duration
}

// postSweep streams one sweep from url, digesting rows as they arrive
// rather than holding them.
func postSweep(c *http.Client, url string, req sweepReq, phase time.Time) (res sweepResult) {
	res = sweepResult{req: req, sent: time.Since(phase)}
	defer func() { res.done = time.Since(phase) }()
	resp, err := c.Post(url, "application/json", bytes.NewReader(req.Body))
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	res.code = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return res
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			if res.first == 0 {
				res.first = time.Since(phase)
			}
			if bytes.HasPrefix(line, []byte(`{"done":`)) {
				res.sawDone = json.Unmarshal(line, &res.sum) == nil && res.sum.Done
			} else if norm, nerr := normalizeRow(line); nerr != nil {
				res.err = nerr
				return res
			} else {
				res.keys = append(res.keys, keyOf(norm))
				res.isErr = append(res.isErr, bytes.HasPrefix(norm, rowErrPrefix))
			}
		}
		if err == io.EOF {
			return res
		}
		if err != nil {
			res.err = err
			return res
		}
	}
}

// runSweeps sends whole blocks of the workload's sweeps from one
// client, one sweep at a time, starting block k while more(k, elapsed)
// holds. It returns the results and the wall time.
func runSweeps(c *http.Client, base, workload string, seed int64, more func(k int, elapsed time.Duration) bool) ([]sweepResult, time.Duration) {
	var out []sweepResult
	phase := time.Now()
	for k := 0; more(k, time.Since(phase)); k++ {
		for _, req := range sweepBlock(workload, seed, k) {
			out = append(out, postSweep(c, base+"/v1/sweep", req, phase))
		}
	}
	return out, time.Since(phase)
}

// sweepCheck is the verdict on a sweep run's answers.
type sweepCheck struct {
	rows       int   // rows expected (cells of every sweep)
	failedRows []int // per sweep: missing, error or wrong rows
	mismatches int   // answered rows that differ from the reference
	digest     [32]byte
}

// checkSweeps compares every answered row with the query core's
// in-process sweep of the same cells, and every repeat sweep with its
// first POST; each sweep must end with a done line counting its cells.
func checkSweeps(results []sweepResult) sweepCheck {
	ck := sweepCheck{failedRows: make([]int, len(results))}
	h := sha256.New()
	first := map[string][]rowKey{} // reference keys by request body
	for i := range results {
		r := &results[i]
		cells, err := sweep.Expand(r.req.Spec)
		if err != nil {
			panic(err) // generated specs always expand
		}
		ck.rows += len(cells)
		want, ok := first[string(r.req.Body)]
		if !ok || !r.req.Repeat {
			want = referenceKeys(cells, r)
			first[string(r.req.Body)] = want
		}
		failed := len(cells) - len(r.keys) // missing rows
		if failed < 0 {
			failed = 0
		}
		for j, k := range r.keys {
			h.Write(k[:])
			switch {
			case j >= len(cells):
				failed++ // an extra row
			case r.isErr[j]:
				failed++
			case k != want[j]:
				failed++
				ck.mismatches++
			}
		}
		if r.err != nil || r.code != http.StatusOK || !r.sawDone || r.sum.Cells != len(cells) {
			failed = len(cells)
		}
		ck.failedRows[i] = min(failed, len(cells))
	}
	copy(ck.digest[:], h.Sum(nil))
	return ck
}

// referenceKeys evaluates in-process, through sweep.Run, every cell the
// fleet answered without an error row, and returns the expected key per
// cell (zero for cells it did not need).
func referenceKeys(cells []sweep.Cell, r *sweepResult) []rowKey {
	want := make([]rowKey, len(cells))
	var todo []sweep.Cell
	var at []int
	for j := range cells {
		if j < len(r.isErr) && !r.isErr[j] {
			c := cells[j]
			c.Index = len(todo)
			todo = append(todo, c)
			at = append(at, j)
		}
	}
	if len(todo) == 0 {
		return want
	}
	_, err := sweep.Run(context.Background(), todo, sweep.Options{}, func(row sweep.Row) error {
		j := at[row.Index]
		row.Index, row.Cached, row.Analytic = 0, false, false
		b, err := json.Marshal(row)
		if err != nil {
			return err
		}
		norm, err := normalizeRow(b)
		if err != nil {
			return err
		}
		want[j] = keyOf(norm)
		return nil
	})
	if err != nil {
		panic(err) // emit never fails on encodable rows
	}
	return want
}
