class SizeLimitError(Exception):
    """An operation stopped at a size guard: guard names the module constant
    that sets limit, and done counts what was reached, in counted units."""

    def __init__(self, guard: str, done: int, limit: int, counted: str):
        super().__init__(guard, done, limit, counted)
        self.guard, self.done, self.limit, self.counted = guard, done, limit, counted

    def __str__(self) -> str:
        return f"capped by {self.guard}: {self.done} {self.counted}, limit {self.limit}"
