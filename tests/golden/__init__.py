"""Golden fingerprints recorded from earlier trees (see each module)."""
