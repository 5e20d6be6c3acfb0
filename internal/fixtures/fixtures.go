// Package fixtures builds small deterministic catalogs used by tests,
// examples, and micro-benchmarks. The retail fixture mirrors the paper's
// Figure 4 scenario: Sales, Customer, and Parts tables analyzed by three
// different users whose queries share the Sales⋈Customer(Asia) subexpression.
package fixtures

import (
	"fmt"
	"time"

	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
)

// Epoch is the reference start time used across fixtures and experiments:
// Feb 1, 2020 — the first day of the paper's production window.
var Epoch = time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)

// Segments used in the retail fixture.
var Segments = []string{"Asia", "Europe", "America", "Africa", "Oceania"}

// Brands and part types for the Parts table.
var (
	Brands    = []string{"Contoso", "Fabrikam", "Adventure", "Northwind", "Tailspin"}
	PartTypes = []string{"widget", "gadget", "sprocket", "gear", "cog"}
)

// RetailConfig sizes the retail fixture.
type RetailConfig struct {
	Customers int
	Parts     int
	Sales     int
	Seed      uint64
}

// DefaultRetail is a small but non-trivial configuration.
func DefaultRetail() RetailConfig {
	return RetailConfig{Customers: 200, Parts: 50, Sales: 5000, Seed: 42}
}

// Retail builds the Figure 4 catalog with one version of each table and
// returns it. Data is deterministic in the seed.
func Retail(cfg RetailConfig) (*catalog.Catalog, error) {
	cat := catalog.New()
	rng := data.NewRand(cfg.Seed)

	customerSchema := data.Schema{
		{Name: "Id", Kind: data.KindInt},
		{Name: "Name", Kind: data.KindString},
		{Name: "MktSegment", Kind: data.KindString},
	}
	if _, err := cat.Define("Customer", customerSchema); err != nil {
		return nil, err
	}
	customers := data.NewTable(customerSchema)
	for i := 0; i < cfg.Customers; i++ {
		customers.Append(data.Row{
			data.Int(int64(i)),
			data.String_(fmt.Sprintf("customer-%04d", i)),
			data.String_(Segments[rng.Intn(len(Segments))]),
		})
	}
	if _, err := cat.BulkUpdate("Customer", Epoch, customers); err != nil {
		return nil, err
	}

	partSchema := data.Schema{
		{Name: "PartId", Kind: data.KindInt},
		{Name: "Brand", Kind: data.KindString},
		{Name: "PartType", Kind: data.KindString},
	}
	if _, err := cat.Define("Parts", partSchema); err != nil {
		return nil, err
	}
	parts := data.NewTable(partSchema)
	for i := 0; i < cfg.Parts; i++ {
		parts.Append(data.Row{
			data.Int(int64(i)),
			data.String_(Brands[rng.Intn(len(Brands))]),
			data.String_(PartTypes[rng.Intn(len(PartTypes))]),
		})
	}
	if _, err := cat.BulkUpdate("Parts", Epoch, parts); err != nil {
		return nil, err
	}

	salesSchema := data.Schema{
		{Name: "SaleId", Kind: data.KindInt},
		{Name: "CustomerId", Kind: data.KindInt},
		{Name: "PartId", Kind: data.KindInt},
		{Name: "Price", Kind: data.KindFloat},
		{Name: "Quantity", Kind: data.KindInt},
		{Name: "Discount", Kind: data.KindFloat},
		{Name: "SoldAt", Kind: data.KindTime},
	}
	if _, err := cat.Define("Sales", salesSchema); err != nil {
		return nil, err
	}
	sales := salesTable(salesSchema, cfg, rng, 0)
	if _, err := cat.BulkUpdate("Sales", Epoch, sales); err != nil {
		return nil, err
	}
	return cat, nil
}

func salesTable(schema data.Schema, cfg RetailConfig, rng *data.Rand, day int) *data.Table {
	t := data.NewTable(schema)
	base := Epoch.AddDate(0, 0, day)
	for i := 0; i < cfg.Sales; i++ {
		t.Append(data.Row{
			data.Int(int64(day*cfg.Sales + i)),
			data.Int(int64(rng.Zipf(cfg.Customers, 1.1))),
			data.Int(int64(rng.Intn(cfg.Parts))),
			data.Float(1 + 99*rng.Float64()),
			data.Int(1 + int64(rng.Intn(10))),
			data.Float(rng.Float64() * 0.3),
			data.Time(base.Add(time.Duration(rng.Intn(86400)) * time.Second)),
		})
	}
	return t
}

// Figure4Queries returns the three analyst queries from the paper's Figure 4.
// All three share the Sales ⋈ Customer (Asia) subexpression; the last two
// additionally share its join with Parts.
func Figure4Queries() []string {
	return []string{
		// Average sales per customer in Asia.
		`res = SELECT CustomerId, AVG(Price * Quantity) AS avg_sales
		       FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id
		       WHERE MktSegment = 'Asia'
		       GROUP BY CustomerId;
		 OUTPUT res TO "out/avg_sales_per_customer";`,
		// Average discount per part brand in Asia.
		`res = SELECT Brand, AVG(Discount) AS avg_discount
		       FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id
		                  JOIN Parts ON Sales.PartId = Parts.PartId
		       WHERE MktSegment = 'Asia'
		       GROUP BY Brand;
		 OUTPUT res TO "out/avg_discount_per_brand";`,
		// Total quantity sold per part type in Asia.
		`res = SELECT PartType, SUM(Quantity) AS total_qty
		       FROM Sales JOIN Customer ON Sales.CustomerId = Customer.Id
		                  JOIN Parts ON Sales.PartId = Parts.PartId
		       WHERE MktSegment = 'Asia'
		       GROUP BY PartType;
		 OUTPUT res TO "out/total_qty_per_type";`,
	}
}
