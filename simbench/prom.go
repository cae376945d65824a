package main

import (
	"sort"
	"strconv"
	"strings"
)

// promSamples parses Prometheus text exposition into sample values
// keyed by family name plus sorted label pairs (see promKey). Comments,
// exemplars, timestamps and every family the benchmark does not read
// are skipped, so families added to /metrics never break it.
func promSamples(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		name, labels, rest, ok := splitSample(line)
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			continue
		}
		out[promKey(name, labels)] = v
	}
	return out
}

// splitSample splits a sample line into its name, its labels and what
// follows the label set (value, optional timestamp and exemplar).
func splitSample(line string) (name string, labels map[string]string, rest string, ok bool) {
	i := strings.IndexAny(line, "{ \t")
	if i <= 0 {
		return "", nil, "", false
	}
	name = line[:i]
	if line[i] != '{' {
		return name, nil, line[i:], true
	}
	labels = make(map[string]string)
	j := i + 1
	for {
		for j < len(line) && (line[j] == ',' || line[j] == ' ') {
			j++
		}
		if j >= len(line) {
			return "", nil, "", false
		}
		if line[j] == '}' {
			return name, labels, line[j+1:], true
		}
		eq := strings.IndexByte(line[j:], '=')
		if eq < 0 || j+eq+1 >= len(line) || line[j+eq+1] != '"' {
			return "", nil, "", false
		}
		key := strings.TrimSpace(line[j : j+eq])
		j += eq + 2
		var b strings.Builder
		for j < len(line) && line[j] != '"' {
			if line[j] == '\\' && j+1 < len(line) {
				j++
				if line[j] == 'n' {
					b.WriteByte('\n')
				} else {
					b.WriteByte(line[j])
				}
				j++
				continue
			}
			b.WriteByte(line[j])
			j++
		}
		if j >= len(line) {
			return "", nil, "", false
		}
		j++
		labels[key] = b.String()
	}
}

// promKey is the canonical sample key: name{k1="v1",k2="v2"} with
// labels sorted, so label order on the wire does not matter.
func promKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(labels[k])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// promValue looks up one sample by name and label pairs (k1, v1, ...);
// absent samples read as 0.
func promValue(m map[string]float64, name string, kv ...string) float64 {
	labels := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		labels[kv[i]] = kv[i+1]
	}
	return m[promKey(name, labels)]
}
