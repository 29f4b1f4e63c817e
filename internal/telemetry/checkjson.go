package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// CheckJSON is the strict round trip a JSON report must survive: data
// decodes into one T with no field T lacks, no JSON null and nothing
// after it, and write renders that T back to exactly data. The Go type
// and its writer are thus the report's only schema: a missing or renamed
// field, a value of the wrong type, an array rendered as null or a stray
// second value each fail it with an error naming the problem. Value
// ranges and enumerations are beyond a round trip; the goldens pin them.
func CheckJSON[T any](data []byte, write func(*T, io.Writer) error) error {
	if err := rejectNull(data); err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	v := new(T)
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after the report at offset %d", dec.InputOffset())
	}
	var buf bytes.Buffer
	if err := write(v, &buf); err != nil {
		return err
	}
	if got := buf.Bytes(); !bytes.Equal(got, data) {
		i := 0
		for i < len(got) && i < len(data) && got[i] == data[i] {
			i++
		}
		return fmt.Errorf("re-encoding differs from the report at offset %d (%d vs %d bytes)", i, len(got), len(data))
	}
	return nil
}

// rejectNull walks data's tokens and fails on the first null, naming the
// object key it belongs to: every array in a report renders as [].
func rejectNull(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	var inObject []bool // the open containers, innermost last
	key, wantKey := "", false
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if s, ok := tok.(string); ok && wantKey {
			key, wantKey = s, false
			continue
		}
		switch tok {
		case json.Delim('{'), json.Delim('['):
			inObject = append(inObject, tok == json.Delim('{'))
		case json.Delim('}'), json.Delim(']'):
			inObject = inObject[:len(inObject)-1]
		case nil:
			return fmt.Errorf("null for %q at offset %d (arrays render as [])", key, dec.InputOffset())
		}
		wantKey = len(inObject) > 0 && inObject[len(inObject)-1]
	}
}
