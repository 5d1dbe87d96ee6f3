//! Drive-test mobility: routes, cell layout and location-area boundaries.
//!
//! Figure 7 measures call setup along **Route-1**, a 15-mile freeway drive
//! with two location-area updates observed at mile 9.5 (RSSI −73 dBm) and
//! mile 13.2 (−87 dBm). §6.1.2 also uses **Route-2** (28.3 miles,
//! freeway + local). This module turns a position along a route into the
//! serving-cell distance (→ RSSI via [`crate::radio::PathLoss`]) and
//! reports location-area boundary crossings.

use crate::radio::{PathLoss, Rssi};

/// Meters per mile.
pub const METERS_PER_MILE: f64 = 1_609.344;

/// A drive route: cell sites at given mile posts, LA boundaries at others.
#[derive(Clone, Debug)]
pub struct Route {
    /// Route name.
    pub name: &'static str,
    /// Total length, miles.
    pub length_miles: f64,
    /// Cell-site positions along the route, miles. The serving cell is the
    /// nearest one.
    pub cell_sites_miles: Vec<f64>,
    /// Location-area boundaries, miles: crossing one triggers an LAU
    /// (Table 4 row 1).
    pub la_boundaries_miles: Vec<f64>,
    /// Path-loss model along the route.
    pub path_loss: PathLoss,
}

impl Route {
    /// Route-1: 15-mile freeway, LA boundaries at miles 9.5 and 13.2
    /// (Figure 7's two observed updates), cell sites every ~1.4 miles so
    /// RSSI stays in the good range [−51, −95] dBm.
    pub fn route_1() -> Self {
        let mut sites = Vec::new();
        let mut m = 0.3;
        while m < 15.0 {
            sites.push(m);
            m += 1.4;
        }
        Self {
            name: "Route-1",
            length_miles: 15.0,
            cell_sites_miles: sites,
            la_boundaries_miles: vec![9.5, 13.2],
            path_loss: PathLoss::default(),
        }
    }

    /// Route-2: 28.3 miles freeway + local, more boundaries.
    pub fn route_2() -> Self {
        let mut sites = Vec::new();
        let mut m = 0.2;
        while m < 28.3 {
            sites.push(m);
            m += 1.1;
        }
        Self {
            name: "Route-2",
            length_miles: 28.3,
            cell_sites_miles: sites,
            la_boundaries_miles: vec![6.4, 11.8, 17.5, 22.9, 26.0],
            path_loss: PathLoss::default(),
        }
    }

    /// Distance to the nearest cell site at `pos_miles`, in meters.
    pub fn distance_to_cell_m(&self, pos_miles: f64) -> f64 {
        self.cell_sites_miles
            .iter()
            .map(|&s| (s - pos_miles).abs() * METERS_PER_MILE)
            .fold(f64::INFINITY, f64::min)
    }

    /// RSSI at `pos_miles`.
    pub fn rssi_at(&self, pos_miles: f64) -> Rssi {
        self.path_loss.rssi_at(self.distance_to_cell_m(pos_miles))
    }

    /// Location-area boundaries crossed while moving from `from` to `to`
    /// (miles, `from < to`).
    pub fn boundaries_crossed(&self, from: f64, to: f64) -> usize {
        self.la_boundaries_miles
            .iter()
            .filter(|&&b| from < b && b <= to)
            .count()
    }
}

/// A vehicle driving a route at constant speed.
#[derive(Clone, Debug)]
pub struct Drive {
    /// The route driven.
    pub route: Route,
    /// Speed, miles per hour.
    pub speed_mph: f64,
}

impl Drive {
    /// A 60 mph drive on the route.
    pub fn at_60mph(route: Route) -> Self {
        Self {
            route,
            speed_mph: 60.0,
        }
    }

    /// Position (miles) after `t_ms` milliseconds.
    pub fn position_miles(&self, t_ms: u64) -> f64 {
        (self.speed_mph / 3_600_000.0 * t_ms as f64).min(self.route.length_miles)
    }

    /// Total drive duration, milliseconds.
    pub fn duration_ms(&self) -> u64 {
        (self.route.length_miles / self.speed_mph * 3_600_000.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route1_matches_figure7_layout() {
        let r = Route::route_1();
        assert_eq!(r.la_boundaries_miles, vec![9.5, 13.2]);
        assert!((r.length_miles - 15.0).abs() < 1e-9);
    }

    #[test]
    fn rssi_stays_in_good_band_on_route1() {
        let r = Route::route_1();
        let mut step = 0.0;
        while step <= 15.0 {
            let rssi = r.rssi_at(step);
            assert!(
                rssi.0 >= -95.0 && rssi.0 <= -45.0,
                "Figure 7 RSSI band [-51,-95] at mile {step}: {rssi:?}"
            );
            step += 0.1;
        }
    }

    #[test]
    fn boundary_crossing_detection() {
        let r = Route::route_1();
        assert_eq!(r.boundaries_crossed(9.0, 10.0), 1);
        assert_eq!(r.boundaries_crossed(9.0, 14.0), 2);
        assert_eq!(r.boundaries_crossed(0.0, 9.0), 0);
        assert_eq!(r.boundaries_crossed(9.5, 9.6), 0, "exclusive start");
    }

    #[test]
    fn drive_kinematics() {
        let d = Drive::at_60mph(Route::route_1());
        // 60 mph = 1 mile/minute.
        assert!((d.position_miles(60_000) - 1.0).abs() < 1e-9);
        assert_eq!(d.duration_ms(), 15 * 60_000);
        // Clamped at the end.
        assert!((d.position_miles(10_000_000) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn route2_longer_with_more_boundaries() {
        let r2 = Route::route_2();
        assert!(r2.length_miles > Route::route_1().length_miles);
        assert!(r2.la_boundaries_miles.len() > 2);
    }
}
