package gen

import (
	"fmt"
	"math/rand"

	"ecfd/internal/relation"
)

// Config parameterizes dataset generation: |D| rows, noise% (the
// percentage of tuples modified to violate some eCFD, 0–100), and the
// RNG seed for reproducibility. PNBase partitions the phone-number
// space so independently generated batches (ΔD⁺) cannot collide on
// (AC, PN) by accident.
type Config struct {
	Rows   int
	Noise  float64
	Seed   int64
	PNBase int64
}

// Validate reports a configuration Dataset cannot honour: a negative row
// count, or a noise percentage outside 0–100 (NaN included).
func (cfg Config) Validate() error {
	if cfg.Rows < 0 {
		return fmt.Errorf("gen: rows must be >= 0, got %d", cfg.Rows)
	}
	if !(cfg.Noise >= 0 && cfg.Noise <= 100) {
		return fmt.Errorf("gen: noise must be a percentage in [0, 100], got %v", cfg.Noise)
	}
	return nil
}

// Dataset generates a cust instance per §VI. Clean tuples satisfy all
// ten constraints of Constraints(); noise% of the tuples are then
// corrupted on the RHS of a randomly chosen eCFD. cfg must pass
// Validate: Dataset panics on a configuration it cannot honour.
func Dataset(cfg Config) *relation.Relation {
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := relation.New(Schema())
	out.Rows = make([]relation.Tuple, 0, cfg.Rows)
	for i := 0; i < cfg.Rows; i++ {
		// ~3% repeat purchases: a previous customer buys another item.
		// These share (AC, PN, NM, STR, CT, ZIP) and give the embedded
		// FD of φ10 real groups to watch.
		if len(out.Rows) > 0 && rng.Intn(100) < 3 {
			prev := out.Rows[rng.Intn(len(out.Rows))]
			out.Rows = append(out.Rows, repeatPurchase(rng, prev))
			continue
		}
		out.Rows = append(out.Rows, cleanTuple(rng, cfg.PNBase+int64(i)))
	}
	corrupt := int(float64(cfg.Rows) * cfg.Noise / 100.0)
	for _, i := range rng.Perm(cfg.Rows)[:corrupt] {
		corruptTuple(rng, out.Rows[i])
	}
	return out
}

// Column positions in Schema() order.
const (
	colAC = iota
	colPN
	colNM
	colSTR
	colCT
	colZIP
	colITEM
	colTYPE
	colPRICE
)

func pickCity(rng *rand.Rand) city {
	w := rng.Intn(totalCityWeight)
	for _, c := range cities {
		if w < c.Weight {
			return c
		}
		w -= c.Weight
	}
	return cities[len(cities)-1]
}

// cleanTuple draws a customer+purchase consistent with every
// constraint: the city fixes the area code and the ZIP prefix, the
// item fixes the type, and the type fixes the price band. The phone
// number is unique by construction (sequence-based), so the embedded
// FDs hold with no accidental noise floor.
func cleanTuple(rng *rand.Rand, pn int64) relation.Tuple {
	c := pickCity(rng)
	ac := c.AreaCodes[rng.Intn(len(c.AreaCodes))]
	it := items[rng.Intn(len(items))]
	prices := pricesFor(it.Type)
	t := make(relation.Tuple, 9)
	t[colAC] = relation.Text(ac)
	t[colPN] = relation.Text(fmt.Sprintf("%09d", pn))
	t[colNM] = relation.Text(firstNames[rng.Intn(len(firstNames))])
	t[colSTR] = relation.Text(streets[rng.Intn(len(streets))])
	t[colCT] = relation.Text(c.Name)
	t[colZIP] = relation.Text(fmt.Sprintf("%s%02d", c.ZipPrefix, rng.Intn(zipCleanSuffixes)))
	t[colITEM] = relation.Text(it.Title)
	t[colTYPE] = relation.Text(it.Type)
	t[colPRICE] = relation.Text(prices[rng.Intn(len(prices))])
	return t
}

// repeatPurchase copies the customer identity and buys another item.
func repeatPurchase(rng *rand.Rand, prev relation.Tuple) relation.Tuple {
	t := prev.Clone()
	it := items[rng.Intn(len(items))]
	prices := pricesFor(it.Type)
	t[colITEM] = relation.Text(it.Title)
	t[colTYPE] = relation.Text(it.Type)
	t[colPRICE] = relation.Text(prices[rng.Intn(len(prices))])
	return t
}

// corruptTuple damages the RHS of a randomly chosen eCFD, keeping the
// blast radius of embedded-FD corruption bounded:
//
//   - invalid area code (NYC/LI tuples only — single-tuple violations
//     of φ2/φ3, without cascading through φ1's embedded FD);
//   - out-of-band price ("99.99" violates whichever of φ7/φ8/φ9
//     applies — single-tuple);
//   - foreign ZIP from the reserved corrupt range (violates φ4's
//     embedded FD against the handful of tuples sharing the ZIP, and
//     φ5's pattern for capital-district cities).
func corruptTuple(rng *rand.Rand, t relation.Tuple) {
	ct := t[colCT].S
	isMulti := ct == "NYC" || ct == "LI"
	r := rng.Float64()
	switch {
	case isMulti && r < 0.6:
		t[colAC] = relation.Text(fmt.Sprintf("0%02d", rng.Intn(100)))
	case r < 0.75:
		t[colPRICE] = relation.Text("99.99")
	default:
		other := cities[rng.Intn(len(cities))]
		for other.Name == ct {
			other = cities[rng.Intn(len(cities))]
		}
		suffix := zipCleanSuffixes + rng.Intn(zipCorruptSuffixes)
		t[colZIP] = relation.Text(fmt.Sprintf("%s%02d", other.ZipPrefix, suffix))
	}
}

// Updates generates ΔD⁺: n further tuples with the same noise rate,
// drawn from an independent seed and phone-number range so batches
// never collide with the base data by accident.
func Updates(cfg Config, n int, batch int64) *relation.Relation {
	sub := Config{
		Rows:   n,
		Noise:  cfg.Noise,
		Seed:   cfg.Seed + 7919*(batch+1),
		PNBase: cfg.PNBase + int64(cfg.Rows) + int64(n)*(batch+1),
	}
	return Dataset(sub)
}

// DeleteSample picks n distinct RIDs to delete, uniformly at random.
func DeleteSample(rng *rand.Rand, rids []int64, n int) []int64 {
	if n > len(rids) {
		n = len(rids)
	}
	out := make([]int64, 0, n)
	for _, i := range rng.Perm(len(rids))[:n] {
		out = append(out, rids[i])
	}
	return out
}
