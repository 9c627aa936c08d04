//! Synthetic airline on-time performance dataset.
//!
//! Reproduces the statistical character of the paper's evaluation dataset
//! (§7 "Dataset"): flights with origin, destination, flight time, departure
//! and arrival delays; numerical, categorical, text, and undefined values.
//! With `wide = true`, the table is padded to 110 columns like the original
//! so cell-count figures are comparable.

use crate::dist::{Lognormal, TruncNormal, Zipf};
use hillview_columnar::column::{Column, DictColumn, F64Column, I64Column};
use hillview_columnar::{ColumnKind, Table};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Airports (code, state), ordered roughly by real-world traffic so a Zipf
/// over ranks produces a realistic popularity skew.
pub const AIRPORTS: &[(&str, &str)] = &[
    ("ATL", "GA"),
    ("ORD", "IL"),
    ("DFW", "TX"),
    ("DEN", "CO"),
    ("LAX", "CA"),
    ("SFO", "CA"),
    ("PHX", "AZ"),
    ("IAH", "TX"),
    ("LAS", "NV"),
    ("DTW", "MI"),
    ("MSP", "MN"),
    ("SEA", "WA"),
    ("MCO", "FL"),
    ("EWR", "NJ"),
    ("CLT", "NC"),
    ("JFK", "NY"),
    ("LGA", "NY"),
    ("BOS", "MA"),
    ("SLC", "UT"),
    ("BWI", "MD"),
    ("MIA", "FL"),
    ("DCA", "VA"),
    ("MDW", "IL"),
    ("SAN", "CA"),
    ("TPA", "FL"),
    ("PHL", "PA"),
    ("STL", "MO"),
    ("HOU", "TX"),
    ("PDX", "OR"),
    ("OAK", "CA"),
    ("MCI", "MO"),
    ("SJC", "CA"),
    ("AUS", "TX"),
    ("SMF", "CA"),
    ("SNA", "CA"),
    ("MSY", "LA"),
    ("RDU", "NC"),
    ("CLE", "OH"),
    ("SAT", "TX"),
    ("PIT", "PA"),
    ("IND", "IN"),
    ("CMH", "OH"),
    ("MKE", "WI"),
    ("BNA", "TN"),
    ("ABQ", "NM"),
    ("HNL", "HI"),
    ("OGG", "HI"),
    ("LIH", "HI"),
    ("KOA", "HI"),
    ("ANC", "AK"),
    ("BUR", "CA"),
    ("ONT", "CA"),
    ("JAX", "FL"),
    ("BUF", "NY"),
    ("OMA", "NE"),
    ("TUS", "AZ"),
    ("OKC", "OK"),
    ("MEM", "TN"),
    ("RIC", "VA"),
    ("BDL", "CT"),
];

/// Carrier codes, ordered by rough market share.
pub const CARRIERS: &[&str] = &[
    "WN", "AA", "DL", "UA", "US", "OO", "EV", "MQ", "B6", "AS", "NK", "F9", "HA", "VX",
];

/// Cancellation reason codes (BTS convention).
pub const CANCELLATION_CODES: &[&str] = &["A", "B", "C", "D"];

/// Milliseconds per day.
const DAY_MS: i64 = 86_400_000;
/// Epoch millis of 2016-01-01 (start of the synthetic period).
const PERIOD_START_MS: i64 = 1_451_606_400_000;
/// Days in the synthetic period (~2 years).
const PERIOD_DAYS: i64 = 730;

/// Configuration for the flights generator.
#[derive(Debug, Clone)]
pub struct FlightsConfig {
    /// Number of rows to generate.
    pub rows: usize,
    /// RNG seed; same seed ⇒ identical table.
    pub seed: u64,
    /// Pad with extra metric columns up to 110 total, like the paper's
    /// dataset. Leave false for fast unit tests.
    pub wide: bool,
}

impl Default for FlightsConfig {
    fn default() -> Self {
        FlightsConfig {
            rows: 10_000,
            seed: 0xF11_687,
            wide: false,
        }
    }
}

impl FlightsConfig {
    /// Convenience constructor.
    pub fn new(rows: usize, seed: u64) -> Self {
        FlightsConfig {
            rows,
            seed,
            wide: false,
        }
    }

    /// Enable 110-column padding.
    pub fn wide(mut self) -> Self {
        self.wide = true;
        self
    }
}

/// Column-major accumulation buffers for one generation pass.
struct Buffers {
    year: Vec<i64>,
    month: Vec<i64>,
    day_of_month: Vec<i64>,
    day_of_week: Vec<i64>,
    flight_date: Vec<i64>,
    carrier: Vec<u32>,
    flight_num: Vec<i64>,
    tail_num: Vec<Option<String>>,
    origin: Vec<u32>,
    origin_state: Vec<u32>,
    dest: Vec<u32>,
    dest_state: Vec<u32>,
    crs_dep_time: Vec<i64>,
    dep_time: Vec<Option<i64>>,
    dep_delay: Vec<Option<f64>>,
    taxi_out: Vec<Option<f64>>,
    taxi_in: Vec<Option<f64>>,
    arr_time: Vec<Option<i64>>,
    arr_delay: Vec<Option<f64>>,
    cancelled: Vec<i64>,
    cancellation_code: Vec<Option<u32>>,
    diverted: Vec<i64>,
    air_time: Vec<Option<f64>>,
    distance: Vec<i64>,
    carrier_delay: Vec<Option<f64>>,
    weather_delay: Vec<Option<f64>>,
    nas_delay: Vec<Option<f64>>,
    security_delay: Vec<Option<f64>>,
    late_aircraft_delay: Vec<Option<f64>>,
}

impl Buffers {
    fn with_capacity(n: usize) -> Self {
        Buffers {
            year: Vec::with_capacity(n),
            month: Vec::with_capacity(n),
            day_of_month: Vec::with_capacity(n),
            day_of_week: Vec::with_capacity(n),
            flight_date: Vec::with_capacity(n),
            carrier: Vec::with_capacity(n),
            flight_num: Vec::with_capacity(n),
            tail_num: Vec::with_capacity(n),
            origin: Vec::with_capacity(n),
            origin_state: Vec::with_capacity(n),
            dest: Vec::with_capacity(n),
            dest_state: Vec::with_capacity(n),
            crs_dep_time: Vec::with_capacity(n),
            dep_time: Vec::with_capacity(n),
            dep_delay: Vec::with_capacity(n),
            taxi_out: Vec::with_capacity(n),
            taxi_in: Vec::with_capacity(n),
            arr_time: Vec::with_capacity(n),
            arr_delay: Vec::with_capacity(n),
            cancelled: Vec::with_capacity(n),
            cancellation_code: Vec::with_capacity(n),
            diverted: Vec::with_capacity(n),
            air_time: Vec::with_capacity(n),
            distance: Vec::with_capacity(n),
            carrier_delay: Vec::with_capacity(n),
            weather_delay: Vec::with_capacity(n),
            nas_delay: Vec::with_capacity(n),
            security_delay: Vec::with_capacity(n),
            late_aircraft_delay: Vec::with_capacity(n),
        }
    }
}

/// Great-circle-ish distance proxy between two airport ranks: deterministic
/// pseudo-distance in miles, stable across runs so route distances are
/// consistent (same route ⇒ same distance).
fn route_distance(origin: usize, dest: usize) -> i64 {
    let a = origin.min(dest) as u64;
    let b = origin.max(dest) as u64;
    let mix = a
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(b.wrapping_mul(0x85EB_CA6B));
    100 + (mix % 2_600) as i64
}

/// Generate the flights table.
pub fn generate_flights(cfg: &FlightsConfig) -> Table {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let airport_zipf = Zipf::new(AIRPORTS.len(), 0.9);
    let carrier_zipf = Zipf::new(CARRIERS.len(), 1.0);
    let delay_tail = Lognormal::new(2.2, 1.1);
    let taxi_dist = TruncNormal::new(14.0, 6.0, 1.0, 60.0);
    let n = cfg.rows;
    let mut b = Buffers::with_capacity(n);

    for _ in 0..n {
        let day = rng.gen_range(0..PERIOD_DAYS);
        let date_ms = PERIOD_START_MS + day * DAY_MS;
        // Approximate calendar without a time library: 365-day years and
        // 30.44-day months are fine for a synthetic benchmark dataset.
        let year = 2016 + (day / 365);
        let day_of_year = day % 365;
        let month = (day_of_year as f64 / 30.44).floor() as i64 + 1;
        let day_of_month = (day_of_year as f64 % 30.44).floor() as i64 + 1;
        let day_of_week = (day % 7) + 1;

        let carrier = carrier_zipf.sample(&mut rng);
        let origin = airport_zipf.sample(&mut rng);
        let mut dest = airport_zipf.sample(&mut rng);
        while dest == origin {
            dest = airport_zipf.sample(&mut rng);
        }
        let distance = route_distance(origin, dest);

        // Departures cluster in daytime hours; delays worsen late in the day
        // (the real dataset's strongest pattern, exercised by case-study Q7).
        let hour = {
            let h = TruncNormal::new(13.0, 4.5, 0.0, 23.99).sample(&mut rng);
            h as i64
        };
        let minute = rng.gen_range(0..60i64);
        let crs_dep = hour * 100 + minute;

        let cancelled = rng.gen_bool(0.018);
        let diverted = !cancelled && rng.gen_bool(0.002);

        b.year.push(year);
        b.month.push(month.min(12));
        b.day_of_month.push(day_of_month);
        b.day_of_week.push(day_of_week);
        b.flight_date.push(date_ms);
        b.carrier.push(carrier as u32);
        b.flight_num.push(rng.gen_range(1..6000));
        // ~1% missing tail numbers (the real data has undefined values).
        b.tail_num.push(if rng.gen_bool(0.01) {
            None
        } else {
            Some(format!("N{:05}", rng.gen_range(100..99_999)))
        });
        b.origin.push(origin as u32);
        b.origin_state.push(origin as u32);
        b.dest.push(dest as u32);
        b.dest_state.push(dest as u32);
        b.crs_dep_time.push(crs_dep);
        b.cancelled.push(cancelled as i64);
        b.diverted.push(diverted as i64);
        b.distance.push(distance);

        if cancelled {
            let code = rng.gen_range(0..CANCELLATION_CODES.len() as u32);
            b.cancellation_code.push(Some(code));
            b.dep_time.push(None);
            b.dep_delay.push(None);
            b.taxi_out.push(None);
            b.taxi_in.push(None);
            b.arr_time.push(None);
            b.arr_delay.push(None);
            b.air_time.push(None);
            b.carrier_delay.push(None);
            b.weather_delay.push(None);
            b.nas_delay.push(None);
            b.security_delay.push(None);
            b.late_aircraft_delay.push(None);
            continue;
        }
        b.cancellation_code.push(None);

        // Departure delay: mostly slightly early/on-time, heavy right tail,
        // worse later in the day, worse for low-rank (busy) airports.
        let base = TruncNormal::new(-3.0, 6.0, -25.0, 30.0).sample(&mut rng);
        let tail = if rng.gen_bool(0.18 + 0.01 * (hour as f64 - 6.0).max(0.0) / 2.0) {
            delay_tail.sample(&mut rng)
        } else {
            0.0
        };
        let congestion = if origin < 5 { 2.0 } else { 0.0 };
        let dep_delay = (base + tail + congestion).round();
        let dep_time = (crs_dep + dep_delay as i64).rem_euclid(2400);
        let taxi_out = taxi_dist.sample(&mut rng).round();
        let taxi_in = (taxi_dist.sample(&mut rng) / 2.0).round().max(1.0);
        let air_time = (distance as f64 / 7.5
            + 20.0
            + TruncNormal::new(0.0, 8.0, -25.0, 25.0).sample(&mut rng))
        .round()
        .max(15.0);
        // Arrival delay regresses toward the departure delay with en-route
        // noise (pilots make up some time).
        let arr_delay =
            (dep_delay * 0.9 + TruncNormal::new(-2.0, 10.0, -40.0, 40.0).sample(&mut rng)).round();
        let arr_time = (crs_dep + air_time as i64 + arr_delay as i64).rem_euclid(2400);

        b.dep_time.push(Some(dep_time));
        b.dep_delay.push(Some(dep_delay));
        b.taxi_out.push(Some(taxi_out));
        b.taxi_in.push(Some(taxi_in));
        b.arr_time.push(Some(arr_time));
        b.arr_delay.push(Some(arr_delay));
        b.air_time.push(Some(air_time));

        // Delay attribution columns: present only when the flight is late
        // (mirrors the real dataset, where they are mostly undefined).
        if arr_delay >= 15.0 {
            let mut remaining = arr_delay;
            let carrier_d = (remaining * rng.gen_range(0.0..0.6)).round();
            remaining -= carrier_d;
            let weather_d = if rng.gen_bool(0.15) {
                (remaining * rng.gen_range(0.0..0.8)).round()
            } else {
                0.0
            };
            remaining -= weather_d;
            let nas_d = (remaining * rng.gen_range(0.0..0.7)).round();
            remaining -= nas_d;
            let security_d = if rng.gen_bool(0.01) { 5.0 } else { 0.0 };
            let late_aircraft = (remaining - security_d).max(0.0).round();
            b.carrier_delay.push(Some(carrier_d));
            b.weather_delay.push(Some(weather_d));
            b.nas_delay.push(Some(nas_d));
            b.security_delay.push(Some(security_d));
            b.late_aircraft_delay.push(Some(late_aircraft));
        } else {
            b.carrier_delay.push(None);
            b.weather_delay.push(None);
            b.nas_delay.push(None);
            b.security_delay.push(None);
            b.late_aircraft_delay.push(None);
        }
    }

    let airport_code = |ranks: &[u32]| -> DictColumn {
        DictColumn::from_strings(ranks.iter().map(|&r| Some(AIRPORTS[r as usize].0)))
    };
    let airport_state = |ranks: &[u32]| -> DictColumn {
        DictColumn::from_strings(ranks.iter().map(|&r| Some(AIRPORTS[r as usize].1)))
    };

    let mut t = Table::builder()
        .column("Year", ColumnKind::Int, Column::Int(int(b.year)))
        .column("Month", ColumnKind::Int, Column::Int(int(b.month)))
        .column(
            "DayOfMonth",
            ColumnKind::Int,
            Column::Int(int(b.day_of_month)),
        )
        .column(
            "DayOfWeek",
            ColumnKind::Int,
            Column::Int(int(b.day_of_week)),
        )
        .column(
            "FlightDate",
            ColumnKind::Date,
            Column::Date(int(b.flight_date)),
        )
        .column(
            "Carrier",
            ColumnKind::Category,
            Column::Cat(DictColumn::from_strings(
                b.carrier.iter().map(|&r| Some(CARRIERS[r as usize])),
            )),
        )
        .column("FlightNum", ColumnKind::Int, Column::Int(int(b.flight_num)))
        .column(
            "TailNum",
            ColumnKind::String,
            Column::Str(DictColumn::from_strings(
                b.tail_num.iter().map(|v| v.as_deref()),
            )),
        )
        .column(
            "Origin",
            ColumnKind::Category,
            Column::Cat(airport_code(&b.origin)),
        )
        .column(
            "OriginState",
            ColumnKind::Category,
            Column::Cat(airport_state(&b.origin_state)),
        )
        .column(
            "Dest",
            ColumnKind::Category,
            Column::Cat(airport_code(&b.dest)),
        )
        .column(
            "DestState",
            ColumnKind::Category,
            Column::Cat(airport_state(&b.dest_state)),
        )
        .column(
            "CRSDepTime",
            ColumnKind::Int,
            Column::Int(int(b.crs_dep_time)),
        )
        .column(
            "DepTime",
            ColumnKind::Int,
            Column::Int(I64Column::from_options(b.dep_time)),
        )
        .column(
            "DepDelay",
            ColumnKind::Double,
            Column::Double(F64Column::from_options(b.dep_delay)),
        )
        .column(
            "TaxiOut",
            ColumnKind::Double,
            Column::Double(F64Column::from_options(b.taxi_out)),
        )
        .column(
            "TaxiIn",
            ColumnKind::Double,
            Column::Double(F64Column::from_options(b.taxi_in)),
        )
        .column(
            "ArrTime",
            ColumnKind::Int,
            Column::Int(I64Column::from_options(b.arr_time)),
        )
        .column(
            "ArrDelay",
            ColumnKind::Double,
            Column::Double(F64Column::from_options(b.arr_delay)),
        )
        .column("Cancelled", ColumnKind::Int, Column::Int(int(b.cancelled)))
        .column(
            "CancellationCode",
            ColumnKind::Category,
            Column::Cat(DictColumn::from_strings(
                b.cancellation_code
                    .iter()
                    .map(|v| v.map(|c| CANCELLATION_CODES[c as usize])),
            )),
        )
        .column("Diverted", ColumnKind::Int, Column::Int(int(b.diverted)))
        .column(
            "AirTime",
            ColumnKind::Double,
            Column::Double(F64Column::from_options(b.air_time)),
        )
        .column("Distance", ColumnKind::Int, Column::Int(int(b.distance)))
        .column(
            "CarrierDelay",
            ColumnKind::Double,
            Column::Double(F64Column::from_options(b.carrier_delay)),
        )
        .column(
            "WeatherDelay",
            ColumnKind::Double,
            Column::Double(F64Column::from_options(b.weather_delay)),
        )
        .column(
            "NASDelay",
            ColumnKind::Double,
            Column::Double(F64Column::from_options(b.nas_delay)),
        )
        .column(
            "SecurityDelay",
            ColumnKind::Double,
            Column::Double(F64Column::from_options(b.security_delay)),
        )
        .column(
            "LateAircraftDelay",
            ColumnKind::Double,
            Column::Double(F64Column::from_options(b.late_aircraft_delay)),
        )
        .build()
        .expect("flights schema is well-formed");

    if cfg.wide {
        // Pad to 110 columns with derived metrics, as the real dataset has
        // ~110 mostly-numeric columns. Deterministic functions of the row
        // keep generation cheap and compressible.
        let base = t.num_columns();
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xDEAD_BEEF);
        for k in 0..(110 - base) {
            let noise: Vec<i64> = (0..n).map(|_| rng.gen_range(0..1000)).collect();
            t = t
                .with_column(&format!("Metric{k:02}"), Column::Int(int(noise)))
                .expect("metric names unique");
        }
    }
    t
}

fn int(v: Vec<i64>) -> I64Column {
    I64Column::new(v, hillview_columnar::NullMask::none())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hillview_columnar::Value;

    #[test]
    fn deterministic_generation() {
        let a = generate_flights(&FlightsConfig::new(500, 1));
        let b = generate_flights(&FlightsConfig::new(500, 1));
        for r in [0usize, 99, 499] {
            assert_eq!(a.full_row(r), b.full_row(r));
        }
        let c = generate_flights(&FlightsConfig::new(500, 2));
        assert_ne!(a.full_row(0), c.full_row(0));
    }

    #[test]
    fn schema_shape() {
        let t = generate_flights(&FlightsConfig::new(100, 1));
        assert_eq!(t.num_rows(), 100);
        assert_eq!(t.num_columns(), 29);
        let wide = generate_flights(&FlightsConfig {
            rows: 50,
            seed: 1,
            wide: true,
        });
        assert_eq!(wide.num_columns(), 110);
        assert_eq!(wide.num_cells(), 50 * 110);
    }

    #[test]
    fn carriers_follow_zipf_skew() {
        let t = generate_flights(&FlightsConfig::new(20_000, 3));
        let col = t.column_by_name("Carrier").unwrap().as_dict_col().unwrap();
        let mut counts = std::collections::HashMap::new();
        let mut buf = String::new();
        for i in 0..t.num_rows() {
            *counts
                .entry(col.read(i, &mut buf).unwrap().to_string())
                .or_insert(0usize) += 1;
        }
        let wn = counts.get("WN").copied().unwrap_or(0);
        let vx = counts.get("VX").copied().unwrap_or(0);
        assert!(wn > vx * 3, "WN={wn} VX={vx}");
    }

    #[test]
    fn cancelled_flights_have_missing_delays() {
        let t = generate_flights(&FlightsConfig::new(20_000, 4));
        let cancelled = t.column_by_name("Cancelled").unwrap();
        let dep_delay = t.column_by_name("DepDelay").unwrap();
        let code = t.column_by_name("CancellationCode").unwrap();
        let mut seen_cancelled = 0;
        for i in 0..t.num_rows() {
            if cancelled.value(i) == Value::Int(1) {
                seen_cancelled += 1;
                assert!(dep_delay.is_null(i), "cancelled flight has a delay");
                assert!(!code.is_null(i), "cancelled flight lacks a code");
            } else {
                assert!(code.is_null(i), "non-cancelled flight has a code");
            }
        }
        assert!(
            seen_cancelled > 100,
            "cancellation rate too low: {seen_cancelled}"
        );
    }

    #[test]
    fn distances_are_route_stable() {
        let t = generate_flights(&FlightsConfig::new(50_000, 5));
        let origin = t.column_by_name("Origin").unwrap();
        let dest = t.column_by_name("Dest").unwrap();
        let dist = t.column_by_name("Distance").unwrap();
        let mut seen: std::collections::HashMap<(String, String), i64> =
            std::collections::HashMap::new();
        for i in 0..t.num_rows() {
            let key = (origin.value(i).to_string(), dest.value(i).to_string());
            let d = dist.value(i).as_i64().unwrap();
            if let Some(&prev) = seen.get(&key) {
                assert_eq!(prev, d, "distance varies for route {key:?}");
            } else {
                seen.insert(key, d);
            }
        }
    }

    #[test]
    fn delays_have_heavy_right_tail() {
        let t = generate_flights(&FlightsConfig::new(50_000, 6));
        let col = t.column_by_name("DepDelay").unwrap().as_f64_col().unwrap();
        let mut vals: Vec<f64> = (0..t.num_rows()).filter_map(|i| col.get(i)).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = vals[vals.len() / 2];
        let p99 = vals[vals.len() * 99 / 100];
        assert!(median.abs() < 10.0, "median {median}");
        assert!(p99 > 40.0, "p99 {p99} not heavy-tailed");
    }

    #[test]
    fn hawaii_airports_have_hi_state() {
        let t = generate_flights(&FlightsConfig::new(50_000, 7));
        let dest = t.column_by_name("Dest").unwrap();
        let state = t.column_by_name("DestState").unwrap();
        let mut hawaii_seen = false;
        for i in 0..t.num_rows() {
            let d = dest.value(i).to_string();
            if ["HNL", "OGG", "LIH", "KOA"].contains(&d.as_str()) {
                hawaii_seen = true;
                assert_eq!(state.value(i), Value::str("HI"));
            }
        }
        assert!(hawaii_seen, "no Hawaii flights generated");
    }

    #[test]
    fn dates_fall_in_period() {
        let t = generate_flights(&FlightsConfig::new(5_000, 8));
        let date = t.column_by_name("FlightDate").unwrap();
        for i in 0..t.num_rows() {
            let ms = date.value(i).as_i64().unwrap();
            assert!(ms >= PERIOD_START_MS);
            assert!(ms < PERIOD_START_MS + PERIOD_DAYS * DAY_MS);
        }
    }
}
