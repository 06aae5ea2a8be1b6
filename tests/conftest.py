from hypothesis import HealthCheck, settings

# No example comes near hypothesis' 200 ms per-example deadline, but a
# deadline would make pass/fail depend on machine load rather than on the
# code, so disable it suite-wide.
settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")
