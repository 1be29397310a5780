"""Reference implementations kept only to be compared against."""
