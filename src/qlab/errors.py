"""The base of the errors qlab raises on purpose.  The CLI reports one of
them as bad input (exit 2); any other exception out of the library is a bug."""


class QlabError(ValueError):
    pass
