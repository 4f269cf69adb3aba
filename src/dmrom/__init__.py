"""Manifold-learning forecast pipeline for multivariate time series.

Learn a low-dimensional spectral embedding of a high-dimensional series,
select the non-redundant coordinates, fit small forecasting models on them,
and lift long-horizon forecasts back to the measurement space.
"""
