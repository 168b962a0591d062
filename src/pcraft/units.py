"""Time unit constants.

All model rates are per second internally.  Configuration files accept
human-scale units (crashes per year, repairs per hour) and are converted
at the boundary.  One year is 8766 hours, so a "three nines" service is
allowed 8.77 hours of downtime per year.
"""

from __future__ import annotations

SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 24 * HOUR
YEAR = 8766 * HOUR          # 31,557,600 s
MONTH = YEAR / 12.0         # 730.5 h

