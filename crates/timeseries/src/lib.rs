//! # timeseries
//!
//! From-scratch time-series forecasting for the Sheriff reproduction
//! (ICPP'15, Sec. IV): ARIMA(p, d, q) with Box–Jenkins order selection,
//! the NARNET nonlinear autoregressive neural network, the dynamic
//! rolling-MSE model selector that combines them (Eqn. 14), and seeded
//! synthetic trace generators standing in for the paper's proprietary
//! ZopleCloud data-center traces.
//!
//! ```
//! use timeseries::arima::{ArimaModel, ArimaSpec};
//! use timeseries::generator::{weekly_traffic_trace, TraceConfig};
//!
//! let y = weekly_traffic_trace(&TraceConfig { len: 7 * 24, samples_per_day: 24, seed: 1 });
//! let model = ArimaModel::fit(&y[..120], ArimaSpec::new(1, 1, 1)).unwrap();
//! let forecast = model.forecast(&y[..120], 12);
//! assert_eq!(forecast.len(), 12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ar;
pub mod arima;
pub mod boxjenkins;
pub mod diagnostics;
pub mod generator;
pub mod interval;
pub mod linalg;
pub mod metrics;
pub mod narnet;
pub mod normalize;
pub mod selector;
pub mod series;
pub mod stats;

pub use arima::{ArimaModel, ArimaSpec, FitError};
pub use boxjenkins::select;
pub use diagnostics::{diagnose_arima, FitReport};
pub use interval::{first_alert_step, Forecast};
pub use narnet::{Narnet, NarnetConfig};
pub use normalize::MinMaxScaler;
pub use selector::{DynamicSelector, Predictor};
