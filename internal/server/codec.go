package server

import (
	"fmt"
	"io"
	"mime"
	"strings"
	"sync"

	"substream/internal/stream"
)

// Ingest body formats. Text is one decimal item per line (blank lines
// skipped); binary is fixed 8-byte little-endian items, the
// length-delimited fast path a forwarding monitor would use. The
// weighted variants carry (item, weight) pairs: text as an optional
// second column per line (weight 1 when absent), binary as fixed
// 16-byte records — 8-byte little-endian key followed by the weight's
// float64 bits, little-endian. Unweighted requests never pay for the
// weight column: they keep their own content types, decoders, and
// pools, byte-identical to the pre-weighted wire.
const (
	ContentTypeText           = "text/plain"
	ContentTypeBinary         = "application/octet-stream"
	ContentTypeTextWeighted   = "text/vnd.substream.weighted"
	ContentTypeBinaryWeighted = "application/vnd.substream.witem"
)

// ingestFormat is the decoded Content-Type of an ingest request.
type ingestFormat int

const (
	formatText ingestFormat = iota
	formatBinary
	formatTextWeighted
	formatBinaryWeighted
)

// parseIngestType normalizes an ingest request's Content-Type: empty and
// text/* select the text format, ContentTypeBinary the binary one, and
// the two weighted types their weighted counterparts. The weighted text
// type is matched before the text/* prefix rule it would otherwise fall
// into.
func parseIngestType(contentType string) (ingestFormat, error) {
	ct := contentType
	if ct != "" {
		if parsed, _, err := mime.ParseMediaType(contentType); err == nil {
			ct = parsed
		}
	}
	switch {
	case ct == ContentTypeTextWeighted:
		return formatTextWeighted, nil
	case ct == ContentTypeBinaryWeighted:
		return formatBinaryWeighted, nil
	case ct == "" || strings.HasPrefix(ct, "text/"):
		return formatText, nil
	case ct == ContentTypeBinary:
		return formatBinary, nil
	default:
		return formatText, fmt.Errorf("unsupported content type %q (want %s, %s, %s or %s)",
			contentType, ContentTypeText, ContentTypeBinary,
			ContentTypeTextWeighted, ContentTypeBinaryWeighted)
	}
}

// scratchBytes is the size of the pooled read buffers, and a pooled chunk
// holds one read buffer's worth of records (8192 items, or 4096 weighted
// ones), so per-request memory is bounded by one buffer and the chunks
// in flight regardless of body size.
const scratchBytes = 64 << 10

// scratchPool recycles the read buffers. It holds pointers (not slices)
// so Get/Put round trips stay allocation-free.
var scratchPool = sync.Pool{New: func() any {
	b := make([]byte, scratchBytes)
	return &b
}}

// chunk is one pooled buffer of decoded items plus its hand-back
// closure, built once at pool construction so the hot loop never
// allocates a closure. A chunk is out of the pool from the moment a
// decoder draws it until release is invoked — for record bodies by the
// shard worker that consumed it — so two chunks in flight never alias,
// which is what lets the decoder run ahead of the pipeline without a
// copy.
type chunk[T any] struct {
	items   []T
	release func()
}

type chunkPool[T any] struct{ pool sync.Pool }

func newChunkPool[T any](capacity int) *chunkPool[T] {
	p := new(chunkPool[T])
	p.pool.New = func() any {
		c := &chunk[T]{items: make([]T, 0, capacity)}
		c.release = func() { p.pool.Put(c) }
		return c
	}
	return p
}

func (p *chunkPool[T]) get() *chunk[T] { return p.pool.Get().(*chunk[T]) }

// itemWire is everything the decode loops need to know about one item type:
// its chunk pool and stream's block parsers for its two body formats.
// Unweighted requests never pay for the weight column — 8-byte records,
// 8-byte items, their own pool.
type itemWire[T any] struct {
	chunks     *chunkPool[T]
	recordSize int
	records    func(buf []byte, dst []T) ([]T, error)
	lines      func(buf []byte, dst []T) ([]T, int, int, error)
}

var (
	plainWire = itemWire[stream.Item]{
		chunks:     newChunkPool[stream.Item](scratchBytes / stream.RecordSize),
		recordSize: stream.RecordSize,
		records:    stream.ParseRecords,
		lines:      stream.ParseLines,
	}
	weightedWire = itemWire[stream.WItem]{
		chunks:     newChunkPool[stream.WItem](scratchBytes / stream.WeightedRecordSize),
		recordSize: stream.WeightedRecordSize,
		records:    stream.ParseWeightedRecords,
		lines:      stream.ParseWeightedLines,
	}
)

// decodeRecords reads a body of fixed-size little-endian records and
// hands the items to sink one pooled chunk at a time, without ever
// materializing the request: working memory is one pooled scratch buffer
// plus the chunks in flight, so the steady state allocates nothing. Each
// chunk is handed over TOGETHER with its release closure, so sink may
// pass the slice downstream zero-copy (pipeline.FeedOwned) and the
// buffer returns to the pool only when the eventual consumer releases
// it; sink must guarantee release is eventually called exactly once per
// chunk, on any path. Returns how many items reached the sink; on a
// mid-body error (zero key, bad weight, truncated record, read failure)
// chunks already handed to sink stay consumed — HTTP cannot roll them
// back — and the count says how many.
func decodeRecords[T any](body io.Reader, w itemWire[T], sink func(items []T, release func())) (int, error) {
	bufp := scratchPool.Get().(*[]byte)
	defer scratchPool.Put(bufp)
	buf := *bufp
	total := 0
	fill := 0 // bytes of a partial trailing record carried between reads
	for {
		n, err := io.ReadFull(body, buf[fill:])
		n += fill
		complete := n - n%w.recordSize
		c := w.chunks.get()
		items, perr := w.records(buf[:complete], c.items[:0])
		if perr != nil || len(items) == 0 {
			c.release()
		} else {
			total += len(items)
			sink(items, c.release)
		}
		if perr != nil {
			return total, perr
		}
		fill = copy(buf, buf[complete:n])
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			if fill != 0 {
				return total, fmt.Errorf("record stream truncated mid-record (%d trailing bytes)", fill)
			}
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// decodeLines reads a one-item-per-line text body and hands the items to
// sink in chunks of at most one pooled chunk, with decodeRecords' shape:
// working memory is one pooled read buffer plus one pooled chunk, both
// recycled afterwards, so the body is never materialized. The line loop
// is stream.ScanLines, the file readers' too: the final line may omit
// its newline, and a line longer than the read buffer is refused. sink
// owns its argument only for the duration of the call (text chunks are
// copied into the pipeline's batch buffers). Returns how many items
// reached the sink; on a parse error, chunks already handed to sink stay
// consumed, as do the items before the bad line.
func decodeLines[T any](body io.Reader, w itemWire[T], sink func(items []T)) (total int, err error) {
	bufp := scratchPool.Get().(*[]byte)
	defer scratchPool.Put(bufp)
	c := w.chunks.get()
	defer c.release()
	flush := func(items []T) []T {
		if len(items) > 0 {
			sink(items)
			total += len(items)
		}
		return items[:0]
	}
	items, err := stream.ScanLines(body, *bufp, c.items[:0], w.lines, flush)
	// However the body ends, the items parsed before that reach the sink
	// and the count.
	flush(items)
	return total, err
}
