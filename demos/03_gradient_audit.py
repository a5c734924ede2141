"""Audit every hand-derived gradient against finite differences.

All backward passes in this package are written out by hand, so the
only trustworthy referee is the loss function itself: perturb each
parameter by +/- h and difference the loss. This script runs that
audit for the matching, KL, and alignment terms and their weighted
sum, over a spread of random instances, and prints the worst relative
error seen for each. One sweep per instance serves all four terms:
every probe is a row of one stacked value-only evaluation of the
episode loss.
"""

from protodetect.gradcheck import TERMS, check_term, random_instance, run_suite


def main():
    print("auditing 20 seeded instances (central differences, h = 1e-6)\n")
    results = run_suite(seeds=range(20))
    for term in TERMS:
        err = results[term]
        print(f"  {term:8s} max relative error {err:.3e}  "
              f"{'ok' if err <= 1e-4 else 'FAIL'}")

    # sanity-check the checker: a deliberately corrupted gradient
    # entry must be flagged for every term
    print()
    for term, err in check_term(random_instance(0), corrupt=True).items():
        print(f"corrupted {term:5s} gradient reports {err:.3e} "
              f"({'detected' if err > 1e-4 else 'MISSED'})")


if __name__ == "__main__":
    main()
