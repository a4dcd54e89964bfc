let current = "1.25.0"
