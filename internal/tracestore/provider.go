package tracestore

import (
	"fmt"
	"io"
	"os"

	"repro/internal/faultfs"
	"repro/internal/tracesim"
)

// Provider is an open stored trace. Blocks feeds it to replay as a
// tracesim.BlockSource, the same stream interface the synthetic
// generators implement, so single- and multi-lane replay of a
// stored trace are exactly the replay of the stream it was built from.
//
// The BlockSource interface carries no error channel, so decode
// failures (a truncated or corrupted block) end the stream early and
// are reported by Err; replay drivers must check it after a run.
type Provider struct {
	meta Meta
	f    faultfs.File
	dec  *Decoder
	err  error
}

// Reset rewinds to the first access for another pass, reusing the
// decoder and its buffers. An error from an earlier pass stays: the
// replay it ended is incomplete however cleanly later passes read.
func (p *Provider) Reset() {
	if _, err := p.f.Seek(headerSize, io.SeekStart); err != nil {
		if p.err == nil {
			p.err = fmt.Errorf("tracestore: rewind %s: %w", p.meta.ID, err)
		}
		return
	}
	p.dec.reset(p.f)
}

// Err reports the first decode error hit during replay, if any, over
// every pass since Open. A stream that ended because of an error is
// incomplete; replays must treat it as failed.
func (p *Provider) Err() error { return p.err }

// Close releases the underlying file.
func (p *Provider) Close() error { return p.f.Close() }

// BlockReader feeds a stored trace to replay one decoded varint-delta
// block at a time, as views of the decoder's reusable buffer: no
// per-access copy and no per-batch copy between disk and simulator.
// It implements tracesim.BlockSource.
//
// A BlockReader shares its Provider's decoder position and error:
// Reset on either rewinds both, and Err on either reports the same
// decode failure.
type BlockReader struct {
	p *Provider
}

// Blocks returns the block-granular view of the provider's stream.
func (p *Provider) Blocks() *BlockReader { return &BlockReader{p: p} }

// NextBlock implements tracesim.BlockSource. The returned slice is
// valid only until the next call. ok=false means end of stream or
// decode error; callers must check Err.
func (br *BlockReader) NextBlock() ([]tracesim.Access, bool) {
	if br.p.err != nil {
		return nil, false
	}
	b, ok := br.p.dec.NextBlock()
	if err := br.p.dec.Err(); err != nil {
		br.p.err = err
		return nil, false
	}
	return b, ok
}

// Reset implements tracesim.BlockSource: rewind for another pass.
func (br *BlockReader) Reset() { br.p.Reset() }

// Err reports the first decode error hit during block replay, if any.
func (br *BlockReader) Err() error { return br.p.Err() }

// Export writes a block source's access stream, from its current
// position to the end, to path in the store's binary format and
// returns the stream summary plus the content address the file would
// ingest under. It is how cmd/trace turns the synthetic generators into
// seedable trace fixtures.
func Export(path string, src tracesim.BlockSource) (Summary, string, error) {
	f, err := os.Create(path)
	if err != nil {
		return Summary{}, "", fmt.Errorf("tracestore: %w", err)
	}
	defer f.Close()
	return writeTrace(f, func(emit func(tracesim.Access)) error {
		for {
			b, ok := src.NextBlock()
			if !ok {
				return nil
			}
			for _, a := range b {
				emit(a)
			}
		}
	})
}
